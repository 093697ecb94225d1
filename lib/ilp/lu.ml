exception Singular

(* Tolerances: [abs_tol] is the smallest pivot magnitude accepted by the
   factorization; [tau] the threshold-pivoting factor trading Markowitz
   freedom against stability; [drop_tol] the magnitude below which a
   computed Schur-complement entry is treated as an exact cancellation. *)
let abs_tol = 1e-11
let tau = 0.1
let drop_tol = 1e-13

type eta = {
  e_r : int;  (* pivot slot *)
  e_diag : float;  (* w_r *)
  e_idx : int array;  (* slots i <> r with w_i <> 0 *)
  e_val : float array;
}

type t = {
  m : int;
  owner : int;  (* id of the creating domain; solves are owner-only *)
  (* Elimination history in pivot order. Step k eliminated matrix row
     [lp_row.(k)] and basis slot [u_q.(k)] with pivot [u_diag.(k)];
     [l_idx/l_val.(k)] are the below-pivot multipliers (by matrix row),
     [u_idx/u_val.(k)] the pivot-row entries in later slots (by slot). *)
  lp_row : int array;
  u_q : int array;
  u_diag : float array;
  l_idx : int array array;
  l_val : float array array;
  u_idx : int array array;
  u_val : float array array;
  fill : int;  (* stored entries of L + U, diagonal included *)
  scratch : float array;
  (* Hyper-sparse solve support, built once at factor time.
     [step_of_row]/[step_of_slot] invert [lp_row]/[u_q]; the *_users
     arrays are the transposed dependency lists (flattened CSR-style):
     [uu_steps.(uu_ptr.(q) .. uu_ptr.(q+1)-1)] are the steps whose U row
     references slot [q], [lu_steps.(lu_ptr.(r) ..)] the steps whose L
     column references matrix row [r]. They let a triangular solve visit
     only the steps reachable from the nonzeros of its right-hand side
     (Gilbert-Peierls reachability, ordered by a step heap). *)
  step_of_row : int array;
  step_of_slot : int array;
  uu_ptr : int array;
  uu_steps : int array;
  lu_ptr : int array;
  lu_steps : int array;
  (* Sparse-solve workspaces. [sscratch] is all-zero between calls (the
     sparse kernels restore the entries they touch); [mark]/[mark2] are
     stamp-based visited sets so no O(m) clearing is ever needed. *)
  sscratch : float array;
  heap : int array;
  mutable hn : int;
  mark : int array;
  mark2 : int array;
  mutable stamp : int;
  buf_a : int array;
  buf_b : int array;
  mutable etas : eta array;
  mutable neta : int;
  mutable eta_entries : int;  (* total off-pivot entries in the eta file *)
}

let size lu = lu.m
let eta_count lu = lu.neta
let eta_nnz lu = lu.eta_entries
let fill lu = lu.fill
let pivot_order lu = Array.init lu.m (fun k -> (lu.lp_row.(k), lu.u_q.(k)))

(* Ownership is structural: the scratch buffers and the eta file are
   unsynchronized, so any cross-domain use is a data race. The stamp
   makes the former comment-only warning an immediate error. *)
let check_owner lu op =
  if (Domain.self () :> int) <> lu.owner then
    invalid_arg
      (Printf.sprintf
         "Lu.%s: factorization owned by domain %d used from domain %d" op
         lu.owner
         (Domain.self () :> int))

(* Bucket-path candidate budget: once any acceptable pivot is in hand,
   the search stops probing after this many threshold-passing candidates
   per elimination step. Together with the count-ordered buckets and the
   [cost <= (k-1)^2] exit this bounds the per-step search independently
   of the active submatrix size; the cap is generous enough that on the
   paper-graph bases it almost never binds before the exact exit does. *)
let max_probes = 200

(* Entry arena for the bucket pivot path: the active submatrix lives in
   parallel arrays of (row, col, value) triples threaded onto two
   doubly-linked lists each — one per column, one per row — so an entry
   is spliced in or out in O(1) and a column or row is walked in
   O(its nnz). [cnx] doubles as the free-list link. Grown by doubling
   when fill-in outruns the initial 2x-nnz headroom. *)
type arena = {
  mutable acap : int;
  mutable e_row : int array;
  mutable e_col : int array;
  mutable e_val : float array;
  mutable cnx : int array;  (* next entry in the same column / free link *)
  mutable cpv : int array;
  mutable rnx : int array;  (* next entry in the same row *)
  mutable rpv : int array;
  mutable atop : int;  (* bump-allocation watermark *)
  mutable freeh : int;  (* free-list head, -1 when empty *)
}

(* The bucket pivot path (Suhl-Suhl style). On top of the arena it keeps
   the active columns and rows sorted by nonzero count in doubly-linked
   {e bucket} lists: [cb_head.(k)] chains the columns of count [k]
   (likewise [rb_head] for rows), and every count change relinks its
   column or row in O(1). The Markowitz search then visits buckets in
   increasing count order and stops as soon as no unseen candidate can
   beat the best cost found: after both count-[<= k-1] bucket families
   have been scanned, any unseen entry has column {e and} row count
   [>= k], i.e. cost [>= (k-1)^2]. Eliminations splice the pivot row and
   column out and apply the rank-1 update in O(entries touched). *)
let factor_bucket (a : Sparse.Csc.mat) (basis : int array) m lp_row u_q u_diag
    l_idx l_val u_idx u_val fill probes =
  let nnz = ref 0 in
  for j = 0 to m - 1 do
    Sparse.Csc.iter_col a basis.(j) (fun _ _ -> incr nnz)
  done;
  let ar =
    let cap = Int.max 64 (2 * !nnz) in
    {
      acap = cap;
      e_row = Array.make cap 0;
      e_col = Array.make cap 0;
      e_val = Array.make cap 0.;
      cnx = Array.make cap (-1);
      cpv = Array.make cap (-1);
      rnx = Array.make cap (-1);
      rpv = Array.make cap (-1);
      atop = 0;
      freeh = -1;
    }
  in
  let grow () =
    let nc = 2 * ar.acap in
    let gi a =
      let b = Array.make nc (-1) in
      Array.blit a 0 b 0 ar.acap;
      b
    in
    let gf a =
      let b = Array.make nc 0. in
      Array.blit a 0 b 0 ar.acap;
      b
    in
    ar.e_row <- gi ar.e_row;
    ar.e_col <- gi ar.e_col;
    ar.e_val <- gf ar.e_val;
    ar.cnx <- gi ar.cnx;
    ar.cpv <- gi ar.cpv;
    ar.rnx <- gi ar.rnx;
    ar.rpv <- gi ar.rpv;
    ar.acap <- nc
  in
  let alloc () =
    if ar.freeh >= 0 then begin
      let e = ar.freeh in
      ar.freeh <- ar.cnx.(e);
      e
    end
    else begin
      if ar.atop = ar.acap then grow ();
      let e = ar.atop in
      ar.atop <- ar.atop + 1;
      e
    end
  in
  let chead = Array.make m (-1) and rhead = Array.make m (-1) in
  let ccnt = Array.make m 0 and rcnt = Array.make m 0 in
  let insert r c v =
    let e = alloc () in
    ar.e_row.(e) <- r;
    ar.e_col.(e) <- c;
    ar.e_val.(e) <- v;
    ar.cnx.(e) <- chead.(c);
    ar.cpv.(e) <- -1;
    if chead.(c) >= 0 then ar.cpv.(chead.(c)) <- e;
    chead.(c) <- e;
    ccnt.(c) <- ccnt.(c) + 1;
    ar.rnx.(e) <- rhead.(r);
    ar.rpv.(e) <- -1;
    if rhead.(r) >= 0 then ar.rpv.(rhead.(r)) <- e;
    rhead.(r) <- e;
    rcnt.(r) <- rcnt.(r) + 1
  in
  let remove_from_col e =
    let nx = ar.cnx.(e) and pv = ar.cpv.(e) in
    if pv >= 0 then ar.cnx.(pv) <- nx else chead.(ar.e_col.(e)) <- nx;
    if nx >= 0 then ar.cpv.(nx) <- pv
  in
  let remove_from_row e =
    let nx = ar.rnx.(e) and pv = ar.rpv.(e) in
    if pv >= 0 then ar.rnx.(pv) <- nx else rhead.(ar.e_row.(e)) <- nx;
    if nx >= 0 then ar.rpv.(nx) <- pv
  in
  let free_entry e =
    ar.cnx.(e) <- ar.freeh;
    ar.freeh <- e
  in
  for j = 0 to m - 1 do
    Sparse.Csc.iter_col a basis.(j) (fun i v -> insert i j v)
  done;
  (* Count buckets. A column (or row) always sits in the bucket of its
     current count; count-0 members land in bucket 0, which the search
     never visits (they cannot supply a pivot until fill-in revives
     them, and every count change relinks). Unlink before any count
     change: the head fixup reads the current count. *)
  let cb_head = Array.make (m + 1) (-1) in
  let cb_nx = Array.make m (-1) and cb_pv = Array.make m (-1) in
  let rb_head = Array.make (m + 1) (-1) in
  let rb_nx = Array.make m (-1) and rb_pv = Array.make m (-1) in
  let cb_link j =
    let k = ccnt.(j) in
    cb_nx.(j) <- cb_head.(k);
    cb_pv.(j) <- -1;
    if cb_head.(k) >= 0 then cb_pv.(cb_head.(k)) <- j;
    cb_head.(k) <- j
  in
  let cb_unlink j =
    let nx = cb_nx.(j) and pv = cb_pv.(j) in
    if pv >= 0 then cb_nx.(pv) <- nx else cb_head.(ccnt.(j)) <- nx;
    if nx >= 0 then cb_pv.(nx) <- pv
  in
  let rb_link i =
    let k = rcnt.(i) in
    rb_nx.(i) <- rb_head.(k);
    rb_pv.(i) <- -1;
    if rb_head.(k) >= 0 then rb_pv.(rb_head.(k)) <- i;
    rb_head.(k) <- i
  in
  let rb_unlink i =
    let nx = rb_nx.(i) and pv = rb_pv.(i) in
    if pv >= 0 then rb_nx.(pv) <- nx else rb_head.(rcnt.(i)) <- nx;
    if nx >= 0 then rb_pv.(nx) <- pv
  in
  for j = 0 to m - 1 do
    cb_link j
  done;
  for i = 0 to m - 1 do
    rb_link i
  done;
  (* Per-column magnitude maximum for the threshold test, cached and
     recomputed lazily: eliminations mark every column they touch dirty,
     and a pivot search reuses a clean max across however many candidate
     entries it probes in that column. *)
  let cmax = Array.make m 0. in
  let cdirty = Array.make m true in
  let colmax j =
    if cdirty.(j) then begin
      let mx = ref 0. in
      let e = ref chead.(j) in
      while !e >= 0 do
        let av = Float.abs ar.e_val.(!e) in
        if av > !mx then mx := av;
        e := ar.cnx.(!e)
      done;
      cmax.(j) <- !mx;
      cdirty.(j) <- false
    end;
    cmax.(j)
  in
  (* Rank-1 update workspace: row-pattern scatter, stamp-validated. *)
  let pos = Array.make m (-1) in
  let pstamp = Array.make m 0 in
  let stamp = ref 0 in
  for step = 0 to m - 1 do
    let best_e = ref (-1) and best_cost = ref max_int and best_mag = ref 0. in
    let pstep = ref 0 in
    let k = ref 1 in
    let searching = ref true in
    while !searching && !k <= m do
      if !best_e >= 0 && !best_cost <= (!k - 1) * (!k - 1) then
        searching := false
      else begin
        (* columns of count k *)
        let j = ref cb_head.(!k) in
        while !searching && !j >= 0 do
          let nj = cb_nx.(!j) in
          let mx = colmax !j in
          if mx >= abs_tol then begin
            let e = ref chead.(!j) in
            while !e >= 0 do
              let av = Float.abs ar.e_val.(!e) in
              if av >= tau *. mx && av >= abs_tol then begin
                incr pstep;
                let cost = (!k - 1) * (rcnt.(ar.e_row.(!e)) - 1) in
                if cost < !best_cost || (cost = !best_cost && av > !best_mag)
                then begin
                  best_cost := cost;
                  best_mag := av;
                  best_e := !e
                end
              end;
              e := ar.cnx.(!e)
            done;
            if !best_cost = 0 || (!best_e >= 0 && !pstep >= max_probes) then
              searching := false
          end;
          j := nj
        done;
        (* rows of count k; entries in columns of count <= k were
           already seen from the column side *)
        if !searching then begin
          let i = ref rb_head.(!k) in
          while !searching && !i >= 0 do
            let ni = rb_nx.(!i) in
            let e = ref rhead.(!i) in
            while !e >= 0 do
              let c = ar.e_col.(!e) in
              if ccnt.(c) > !k then begin
                let mx = colmax c in
                let av = Float.abs ar.e_val.(!e) in
                if mx >= abs_tol && av >= tau *. mx && av >= abs_tol
                then begin
                  incr pstep;
                  let cost = (ccnt.(c) - 1) * (!k - 1) in
                  if
                    cost < !best_cost || (cost = !best_cost && av > !best_mag)
                  then begin
                    best_cost := cost;
                    best_mag := av;
                    best_e := !e
                  end
                end
              end;
              e := ar.rnx.(!e)
            done;
            if !best_cost = 0 || (!best_e >= 0 && !pstep >= max_probes) then
              searching := false;
            i := ni
          done
        end;
        incr k
      end
    done;
    probes := !probes + !pstep;
    if !best_e < 0 then raise Singular;
    let e0 = !best_e in
    let p = ar.e_row.(e0) and q = ar.e_col.(e0) in
    let v = ar.e_val.(e0) in
    lp_row.(step) <- p;
    u_q.(step) <- q;
    u_diag.(step) <- v;
    (* harvest the L column and U row while the lists are intact *)
    let nl = ccnt.(q) - 1 and nu = rcnt.(p) - 1 in
    let li = Array.make nl 0 and lv = Array.make nl 0. in
    let n = ref 0 in
    let e = ref chead.(q) in
    while !e >= 0 do
      let r = ar.e_row.(!e) in
      if r <> p then begin
        li.(!n) <- r;
        lv.(!n) <- ar.e_val.(!e) /. v;
        incr n
      end;
      e := ar.cnx.(!e)
    done;
    let ui = Array.make nu 0 and uv = Array.make nu 0. in
    let n = ref 0 in
    let e = ref rhead.(p) in
    while !e >= 0 do
      let c = ar.e_col.(!e) in
      if c <> q then begin
        ui.(!n) <- c;
        uv.(!n) <- ar.e_val.(!e);
        incr n
      end;
      e := ar.rnx.(!e)
    done;
    l_idx.(step) <- li;
    l_val.(step) <- lv;
    u_idx.(step) <- ui;
    u_val.(step) <- uv;
    fill := !fill + nl + nu;
    (* detach the pivot column and row *)
    cb_unlink q;
    rb_unlink p;
    let e = ref chead.(q) in
    while !e >= 0 do
      let nx = ar.cnx.(!e) in
      let r = ar.e_row.(!e) in
      remove_from_row !e;
      if r <> p then begin
        rb_unlink r;
        rcnt.(r) <- rcnt.(r) - 1;
        rb_link r
      end;
      free_entry !e;
      e := nx
    done;
    chead.(q) <- -1;
    ccnt.(q) <- 0;
    let e = ref rhead.(p) in
    while !e >= 0 do
      let nx = ar.rnx.(!e) in
      let c = ar.e_col.(!e) in
      remove_from_col !e;
      cb_unlink c;
      ccnt.(c) <- ccnt.(c) - 1;
      cb_link c;
      cdirty.(c) <- true;
      free_entry !e;
      e := nx
    done;
    rhead.(p) <- -1;
    rcnt.(p) <- 0;
    (* rank-1 Schur-complement update, O(entries touched): scatter each
       L row's column pattern, then walk the U row against it *)
    for il = 0 to nl - 1 do
      let r = li.(il) and l = lv.(il) in
      incr stamp;
      let s = !stamp in
      let e = ref rhead.(r) in
      while !e >= 0 do
        pos.(ar.e_col.(!e)) <- !e;
        pstamp.(ar.e_col.(!e)) <- s;
        e := ar.rnx.(!e)
      done;
      rb_unlink r;
      for iu = 0 to nu - 1 do
        let c = ui.(iu) in
        let delta = -.l *. uv.(iu) in
        if pstamp.(c) = s && pos.(c) >= 0 then begin
          let e = pos.(c) in
          let nv = ar.e_val.(e) +. delta in
          if Float.abs nv <= drop_tol then begin
            cb_unlink c;
            remove_from_col e;
            ccnt.(c) <- ccnt.(c) - 1;
            cb_link c;
            remove_from_row e;
            rcnt.(r) <- rcnt.(r) - 1;
            free_entry e;
            pos.(c) <- -1;
            cdirty.(c) <- true
          end
          else begin
            ar.e_val.(e) <- nv;
            cdirty.(c) <- true
          end
        end
        else if Float.abs delta > drop_tol then begin
          cb_unlink c;
          insert r c delta;
          cb_link c;
          cdirty.(c) <- true
        end
      done;
      rb_link r
    done
  done

let factor ?(trace = Trace.null_writer) ?(metrics = Metrics.null_shard)
    (a : Sparse.Csc.mat) (basis : int array) =
  let t_start = if Trace.active trace then Mono.now () else 0. in
  let m = Array.length basis in
  if a.Sparse.Csc.nrows <> m then invalid_arg "Lu.factor: dimension mismatch";
  let lp_row = Array.make m 0 and u_q = Array.make m 0 in
  let u_diag = Array.make m 0. in
  let l_idx = Array.make m [||] and l_val = Array.make m [||] in
  let u_idx = Array.make m [||] and u_val = Array.make m [||] in
  let fill = ref m in
  let probes = ref 0 in
  factor_bucket a basis m lp_row u_q u_diag l_idx l_val u_idx u_val fill
    probes;
  if Trace.active trace then
    Trace.emit trace
      (Trace.Lu_factor
         { m; fill = !fill; probes = !probes; dt = Mono.now () -. t_start });
  if Metrics.active metrics then
    Metrics.add metrics Metrics.C_lu_probes !probes;
  (* Inverse permutations and transposed dependency lists. *)
  let step_of_row = Array.make m 0 and step_of_slot = Array.make m 0 in
  for k = 0 to m - 1 do
    step_of_row.(lp_row.(k)) <- k;
    step_of_slot.(u_q.(k)) <- k
  done;
  let uu_ptr = Array.make (m + 1) 0 and lu_ptr = Array.make (m + 1) 0 in
  for k = 0 to m - 1 do
    let ui = u_idx.(k) in
    for n = 0 to Array.length ui - 1 do
      uu_ptr.(ui.(n) + 1) <- uu_ptr.(ui.(n) + 1) + 1
    done;
    let li = l_idx.(k) in
    for n = 0 to Array.length li - 1 do
      lu_ptr.(li.(n) + 1) <- lu_ptr.(li.(n) + 1) + 1
    done
  done;
  for i = 1 to m do
    uu_ptr.(i) <- uu_ptr.(i) + uu_ptr.(i - 1);
    lu_ptr.(i) <- lu_ptr.(i) + lu_ptr.(i - 1)
  done;
  let uu_steps = Array.make uu_ptr.(m) 0
  and lu_steps = Array.make lu_ptr.(m) 0 in
  let uu_fill = Array.copy uu_ptr and lu_fill = Array.copy lu_ptr in
  for k = 0 to m - 1 do
    let ui = u_idx.(k) in
    for n = 0 to Array.length ui - 1 do
      let q = ui.(n) in
      uu_steps.(uu_fill.(q)) <- k;
      uu_fill.(q) <- uu_fill.(q) + 1
    done;
    let li = l_idx.(k) in
    for n = 0 to Array.length li - 1 do
      let r = li.(n) in
      lu_steps.(lu_fill.(r)) <- k;
      lu_fill.(r) <- lu_fill.(r) + 1
    done
  done;
  {
    m;
    owner = (Domain.self () :> int);
    lp_row;
    u_q;
    u_diag;
    l_idx;
    l_val;
    u_idx;
    u_val;
    fill = !fill;
    scratch = Array.make m 0.;
    step_of_row;
    step_of_slot;
    uu_ptr;
    uu_steps;
    lu_ptr;
    lu_steps;
    sscratch = Array.make m 0.;
    heap = Array.make m 0;
    hn = 0;
    mark = Array.make m (-1);
    mark2 = Array.make m (-1);
    stamp = 0;
    buf_a = Array.make m 0;
    buf_b = Array.make m 0;
    etas = [||];
    neta = 0;
    eta_entries = 0;
  }

let ftran lu b =
  check_owner lu "ftran";
  let m = lu.m in
  (* apply L^-1 in pivot order *)
  for k = 0 to m - 1 do
    let t = b.(lu.lp_row.(k)) in
    if t <> 0. then begin
      let idx = lu.l_idx.(k) and vl = lu.l_val.(k) in
      for n = 0 to Array.length idx - 1 do
        b.(idx.(n)) <- b.(idx.(n)) -. (vl.(n) *. t)
      done
    end
  done;
  (* back-substitute U: x indexed by slot, built in scratch *)
  let x = lu.scratch in
  for k = m - 1 downto 0 do
    let s = ref b.(lu.lp_row.(k)) in
    let idx = lu.u_idx.(k) and vl = lu.u_val.(k) in
    for n = 0 to Array.length idx - 1 do
      s := !s -. (vl.(n) *. x.(idx.(n)))
    done;
    x.(lu.u_q.(k)) <- !s /. lu.u_diag.(k)
  done;
  Array.blit x 0 b 0 m;
  (* product-form etas, oldest first *)
  for e = 0 to lu.neta - 1 do
    let eta = lu.etas.(e) in
    let t = b.(eta.e_r) /. eta.e_diag in
    if t <> 0. then
      for n = 0 to Array.length eta.e_idx - 1 do
        b.(eta.e_idx.(n)) <- b.(eta.e_idx.(n)) -. (eta.e_val.(n) *. t)
      done;
    b.(eta.e_r) <- t
  done

let btran lu c =
  check_owner lu "btran";
  let m = lu.m in
  (* eta transposes, newest first: c_r <- (c_r - ((w . c) - c_r)) / w_r
     folded as c_r - (w.c - c_r)/w_r *)
  for e = lu.neta - 1 downto 0 do
    let eta = lu.etas.(e) in
    let d = ref (eta.e_diag *. c.(eta.e_r)) in
    for n = 0 to Array.length eta.e_idx - 1 do
      d := !d +. (eta.e_val.(n) *. c.(eta.e_idx.(n)))
    done;
    c.(eta.e_r) <- c.(eta.e_r) -. ((!d -. c.(eta.e_r)) /. eta.e_diag)
  done;
  (* forward-substitute U^T: input by slot (copied to scratch), output by
     matrix row written back into c *)
  let s = lu.scratch in
  Array.blit c 0 s 0 m;
  for k = 0 to m - 1 do
    let t = s.(lu.u_q.(k)) /. lu.u_diag.(k) in
    c.(lu.lp_row.(k)) <- t;
    if t <> 0. then begin
      let idx = lu.u_idx.(k) and vl = lu.u_val.(k) in
      for n = 0 to Array.length idx - 1 do
        s.(idx.(n)) <- s.(idx.(n)) -. (vl.(n) *. t)
      done
    end
  done;
  (* apply the transposed elimination steps in reverse pivot order *)
  for k = m - 1 downto 0 do
    let p = lu.lp_row.(k) in
    let acc = ref c.(p) in
    let idx = lu.l_idx.(k) and vl = lu.l_val.(k) in
    for n = 0 to Array.length idx - 1 do
      acc := !acc -. (vl.(n) *. c.(idx.(n)))
    done;
    c.(p) <- !acc
  done

(* ------------------------------------------------------------------ *)
(* Hyper-sparse solves                                                 *)
(* ------------------------------------------------------------------ *)

(* Binary heap of elimination steps, ordered by key. Both orders are
   needed (L and U^T run through steps forward, U and L^T backward);
   max order stores negated keys. The [mark] stamp deduplicates pushes,
   so the heap never exceeds [m] entries. *)
let heap_push lu k =
  let h = lu.heap in
  let i = ref lu.hn in
  lu.hn <- lu.hn + 1;
  h.(!i) <- k;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if h.(p) > h.(!i) then begin
      let t = h.(p) in
      h.(p) <- h.(!i);
      h.(!i) <- t;
      i := p
    end
    else continue := false
  done

let heap_pop lu =
  let h = lu.heap in
  let top = h.(0) in
  lu.hn <- lu.hn - 1;
  if lu.hn > 0 then begin
    h.(0) <- h.(lu.hn);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < lu.hn && h.(l) < h.(!s) then s := l;
      if r < lu.hn && h.(r) < h.(!s) then s := r;
      if !s <> !i then begin
        let t = h.(!s) in
        h.(!s) <- h.(!i);
        h.(!i) <- t;
        i := !s
      end
      else continue := false
    done
  end;
  top

(* Steps are visited at most once per phase: a fresh [stamp] per phase,
   a step is pushed only when its mark differs. [push_step_neg] is the
   max-order variant — it marks by the step itself but stores the
   negated key, so the min-heap pops steps in decreasing order. *)
let push_step lu k =
  if lu.mark.(k) <> lu.stamp then begin
    lu.mark.(k) <- lu.stamp;
    heap_push lu k
  end

let push_step_neg lu k =
  if lu.mark.(k) <> lu.stamp then begin
    lu.mark.(k) <- lu.stamp;
    heap_push lu (-k)
  end

(* Density cutoff: below [m/8] input nonzeros the reachability sweep
   beats the dense loop comfortably; past it the heap overhead starts
   to erode the win, so the caller falls back to the dense kernels
   (signalled by the [-1] return). Tuned on the paper-graph LPs; see
   docs/PERFORMANCE.md. *)
let sparse_worthwhile m n = m >= 32 && n * 8 <= m

let ftran_sparse lu b pat n =
  check_owner lu "ftran_sparse";
  let m = lu.m in
  if n = 0 then 0
  else if not (sparse_worthwhile m n) then begin
    ftran lu b;
    -1
  end
  else begin
    (* L phase: process reachable steps in increasing order. *)
    lu.stamp <- lu.stamp + 1;
    lu.hn <- 0;
    for i = 0 to n - 1 do
      push_step lu lu.step_of_row.(pat.(i))
    done;
    let na = ref 0 in
    while lu.hn > 0 do
      let k = heap_pop lu in
      lu.buf_a.(!na) <- k;
      incr na;
      let t = b.(lu.lp_row.(k)) in
      if t <> 0. then begin
        let idx = lu.l_idx.(k) and vl = lu.l_val.(k) in
        for j = 0 to Array.length idx - 1 do
          let r = idx.(j) in
          b.(r) <- b.(r) -. (vl.(j) *. t);
          push_step lu lu.step_of_row.(r)
        done
      end
    done;
    (* U phase: back-substitute reachable steps in decreasing order
       (max-heap via negated keys). [sscratch] holds x by slot; entries
       of unreached steps are exactly zero by the workspace invariant. *)
    lu.stamp <- lu.stamp + 1;
    lu.hn <- 0;
    for i = 0 to !na - 1 do
      push_step_neg lu lu.buf_a.(i)
    done;
    let x = lu.sscratch in
    let nb = ref 0 in
    while lu.hn > 0 do
      let k = -heap_pop lu in
      lu.buf_b.(!nb) <- k;
      incr nb;
      let s = ref b.(lu.lp_row.(k)) in
      let idx = lu.u_idx.(k) and vl = lu.u_val.(k) in
      for j = 0 to Array.length idx - 1 do
        s := !s -. (vl.(j) *. x.(idx.(j)))
      done;
      let xv = !s /. lu.u_diag.(k) in
      x.(lu.u_q.(k)) <- xv;
      if xv <> 0. then begin
        let q = lu.u_q.(k) in
        for j = lu.uu_ptr.(q) to lu.uu_ptr.(q + 1) - 1 do
          push_step_neg lu lu.uu_steps.(j)
        done
      end
    done;
    (* Transfer x into b: clear the L-phase rows first, then write the
       slot-indexed result and restore the sscratch invariant. *)
    for i = 0 to !na - 1 do
      b.(lu.lp_row.(lu.buf_a.(i))) <- 0.
    done;
    lu.stamp <- lu.stamp + 1;
    let cnt = ref 0 in
    for i = 0 to !nb - 1 do
      let q = lu.u_q.(lu.buf_b.(i)) in
      b.(q) <- x.(q);
      x.(q) <- 0.;
      lu.mark2.(q) <- lu.stamp;
      pat.(!cnt) <- q;
      incr cnt
    done;
    (* product-form etas, oldest first, growing the pattern as they
       spread *)
    for e = 0 to lu.neta - 1 do
      let eta = lu.etas.(e) in
      let t = b.(eta.e_r) /. eta.e_diag in
      if t <> 0. then begin
        for j = 0 to Array.length eta.e_idx - 1 do
          let q = eta.e_idx.(j) in
          b.(q) <- b.(q) -. (eta.e_val.(j) *. t);
          if lu.mark2.(q) <> lu.stamp then begin
            lu.mark2.(q) <- lu.stamp;
            pat.(!cnt) <- q;
            incr cnt
          end
        done;
        b.(eta.e_r) <- t
      end
    done;
    !cnt
  end

let btran_sparse lu c pat n =
  check_owner lu "btran_sparse";
  let m = lu.m in
  if n = 0 then 0
  else if not (sparse_worthwhile m n) then begin
    btran lu c;
    -1
  end
  else begin
    (* eta transposes, newest first: only etas touching the current
       pattern can act; each can add at most its own pivot slot. *)
    lu.stamp <- lu.stamp + 1;
    let na = ref 0 in
    for i = 0 to n - 1 do
      lu.mark2.(pat.(i)) <- lu.stamp;
      lu.buf_a.(!na) <- pat.(i);
      incr na
    done;
    for e = lu.neta - 1 downto 0 do
      let eta = lu.etas.(e) in
      let live = ref (lu.mark2.(eta.e_r) = lu.stamp) in
      let j = ref 0 in
      let nidx = Array.length eta.e_idx in
      while (not !live) && !j < nidx do
        if lu.mark2.(eta.e_idx.(!j)) = lu.stamp then live := true;
        incr j
      done;
      if !live then begin
        let d = ref (eta.e_diag *. c.(eta.e_r)) in
        for jj = 0 to nidx - 1 do
          d := !d +. (eta.e_val.(jj) *. c.(eta.e_idx.(jj)))
        done;
        c.(eta.e_r) <- c.(eta.e_r) -. ((!d -. c.(eta.e_r)) /. eta.e_diag);
        if lu.mark2.(eta.e_r) <> lu.stamp then begin
          lu.mark2.(eta.e_r) <- lu.stamp;
          lu.buf_a.(!na) <- eta.e_r;
          incr na
        end
      end
    done;
    (* U^T phase: move the slot-indexed input into sscratch and
       forward-substitute reachable steps in increasing order, writing
       the row-indexed intermediate back into c. *)
    let s = lu.sscratch in
    lu.stamp <- lu.stamp + 1;
    lu.hn <- 0;
    for i = 0 to !na - 1 do
      let q = lu.buf_a.(i) in
      s.(q) <- c.(q);
      c.(q) <- 0.;
      push_step lu lu.step_of_slot.(q)
    done;
    let nb = ref 0 in
    while lu.hn > 0 do
      let k = heap_pop lu in
      lu.buf_b.(!nb) <- k;
      incr nb;
      let t = s.(lu.u_q.(k)) /. lu.u_diag.(k) in
      c.(lu.lp_row.(k)) <- t;
      if t <> 0. then begin
        let idx = lu.u_idx.(k) and vl = lu.u_val.(k) in
        for j = 0 to Array.length idx - 1 do
          s.(idx.(j)) <- s.(idx.(j)) -. (vl.(j) *. t);
          push_step lu lu.step_of_slot.(idx.(j))
        done
      end
    done;
    for i = 0 to !nb - 1 do
      s.(lu.u_q.(lu.buf_b.(i))) <- 0.
    done;
    (* L^T phase: reachable steps in decreasing order. *)
    lu.stamp <- lu.stamp + 1;
    lu.hn <- 0;
    for i = 0 to !nb - 1 do
      push_step_neg lu lu.buf_b.(i)
    done;
    let cnt = ref 0 in
    while lu.hn > 0 do
      let k = -heap_pop lu in
      let p = lu.lp_row.(k) in
      let acc = ref c.(p) in
      let idx = lu.l_idx.(k) and vl = lu.l_val.(k) in
      for j = 0 to Array.length idx - 1 do
        acc := !acc -. (vl.(j) *. c.(idx.(j)))
      done;
      c.(p) <- !acc;
      pat.(!cnt) <- p;
      incr cnt;
      if !acc <> 0. then
        for j = lu.lu_ptr.(p) to lu.lu_ptr.(p + 1) - 1 do
          push_step_neg lu lu.lu_steps.(j)
        done
    done;
    !cnt
  end

let update lu ~w ~r =
  check_owner lu "update";
  let piv = w.(r) in
  if Float.abs piv < abs_tol then raise Singular;
  let n = ref 0 in
  for i = 0 to lu.m - 1 do
    if i <> r && Float.abs w.(i) > drop_tol then incr n
  done;
  (* An exact-identity eta (unit pivot, no off-pivot entries) is a
     no-op in every solve: skip storing it entirely. *)
  if not (!n = 0 && piv = 1.) then begin
    let e_idx = Array.make !n 0 and e_val = Array.make !n 0. in
    let k = ref 0 in
    for i = 0 to lu.m - 1 do
      if i <> r && Float.abs w.(i) > drop_tol then begin
        e_idx.(!k) <- i;
        e_val.(!k) <- w.(i);
        incr k
      end
    done;
    if lu.neta = Array.length lu.etas then begin
      let cap = Int.max 16 (2 * lu.neta) in
      let etas =
        Array.make cap { e_r = 0; e_diag = 1.; e_idx = [||]; e_val = [||] }
      in
      Array.blit lu.etas 0 etas 0 lu.neta;
      lu.etas <- etas
    end;
    lu.etas.(lu.neta) <- { e_r = r; e_diag = piv; e_idx; e_val };
    lu.neta <- lu.neta + 1;
    lu.eta_entries <- lu.eta_entries + !n
  end
