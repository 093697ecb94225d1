(* Deletion-filter IIS extraction seeded by exact Farkas support.
   See iis.mli. *)

type result = {
  rows : int list;
  names : string list;
  certificate : Certify.t;
  solves : int;
}

type outcome =
  | Iis of result
  | Feasible
  | Inconclusive of string

(* Relaxed sub-model over a subset of rows: same variables and bounds
   (integrality dropped — certificates speak about the relaxation),
   rows renumbered densely in the order given. *)
let sub_model lp rows =
  let sub = Lp.create ~name:(Lp.name lp ^ ".iis") () in
  for j = 0 to Lp.num_vars lp - 1 do
    let v = Lp.var_of_int lp j in
    ignore
      (Lp.add_var sub ~name:(Lp.var_name lp v) ~lb:(Lp.var_lb lp v)
         ~ub:(Lp.var_ub lp v) Lp.Continuous)
  done;
  List.iter
    (fun r ->
      let terms, sense, rhs = Lp.row lp r in
      let terms =
        List.map
          (fun ((c : float), (v : Lp.var)) ->
            (c, Lp.var_of_int sub (v :> int)))
          terms
      in
      ignore (Lp.add_constr sub ~name:(Lp.row_name lp r) terms sense rhs))
    rows;
  sub

(* Certified-infeasible test of a row subset. Returns the certificate
   with support mapped back to original row indices. *)
let certified_infeasible lp rows =
  let sub = sub_model lp rows in
  let r, cert = Certify.check_lp sub in
  match (r.Simplex.status, cert.Certify.verdict, cert.Certify.detail) with
  | Simplex.Infeasible, Certify.Certified, Certify.Farkas_proof _ ->
      let back = Array.of_list rows in
      Some (Certify.map_rows (fun k -> back.(k)) cert)
  | _ -> None

let extract lp =
  let solves = ref 1 in
  let r, cert = Certify.check_lp lp in
  match r.Simplex.status with
  | Simplex.Optimal | Simplex.Unbounded -> Feasible
  | Simplex.Iter_limit -> Inconclusive "LP solve hit its iteration limit"
  | Simplex.Infeasible -> (
      (* Seed: the support of an exact Farkas ray is itself infeasible
         (the same ray certifies it), so the filter can start there.
         Without an exact certificate, fall back to every row. *)
      let seed =
        match (cert.Certify.verdict, cert.Certify.detail) with
        | Certify.Certified, Certify.Farkas_proof { support; _ } -> support
        | _ -> List.init (Lp.num_constrs lp) Fun.id
      in
      let seed_cert =
        match (cert.Certify.verdict, cert.Certify.detail) with
        | Certify.Certified, Certify.Farkas_proof _ -> Some cert
        | _ ->
            incr solves;
            certified_infeasible lp seed
      in
      match seed_cert with
      | None ->
          Inconclusive
            "infeasibility could not be certified exactly; no sound IIS"
      | Some cert0 ->
          (* Deletion filter: drop a row iff the rest stays certified
             infeasible, so the invariant "kept set is certified
             infeasible" holds throughout. *)
          let keep = ref seed and proof = ref cert0 in
          List.iter
            (fun r ->
              let trial = List.filter (fun r' -> r' <> r) !keep in
              if trial <> [] then begin
                incr solves;
                match certified_infeasible lp trial with
                | Some c ->
                    keep := trial;
                    proof := c
                | None -> ()
              end)
            seed;
          let rows = List.sort compare !keep in
          Iis
            {
              rows;
              names = List.map (Lp.row_name lp) rows;
              certificate = !proof;
              solves = !solves;
            })
