exception Singular

(* Tolerances: [abs_tol] is the smallest pivot magnitude accepted by the
   factorization; [tau] the threshold-pivoting factor trading Markowitz
   freedom against stability; [drop_tol] the magnitude below which a
   computed Schur-complement entry is treated as an exact cancellation. *)
let abs_tol = 1e-11
let tau = 0.1
let drop_tol = 1e-13

(* Growable storage. Every array of a workspace whose length is not
   fixed by [m] grows only through these, so once a basis of a given
   shape has been factored and updated, later calls find the room they
   need and allocate nothing. A growth to [n] entries allocates [2n]:
   the length at least doubles, so the copies stay amortized O(1) per
   entry, while the room is sized from what is asked rather than from
   the old length, which matters when one dense eta or basis asks for
   far more than the array held. *)
let grow_int a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (2 * n) (-1) in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_float a n =
  if Array.length a >= n then a
  else begin
    let b = Array.make (2 * n) 0. in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* The active submatrix of the bucket pivot search (Suhl-Suhl style).
   Entries live in an arena of parallel (row, col, value) arrays threaded
   onto two doubly-linked lists each, one per column and one per row, so
   an entry is spliced in or out in O(1) and a column or row is walked in
   O(its nnz); [cnx] doubles as the free-list link. On top of that the
   active columns and rows sit in doubly-linked {e bucket} lists by
   nonzero count: [cb_head.(k)] chains the columns of count [k] (likewise
   [rb_head] for rows), and every count change relinks its column or row
   in O(1). Kept across factorizations: {!refactor} resets the heads and
   counts and reuses the arrays. *)
type active = {
  mutable e_row : int array;
  mutable e_col : int array;
  mutable e_val : float array;
  mutable cnx : int array;  (* next entry in the same column / free link *)
  mutable cpv : int array;
  mutable rnx : int array;  (* next entry in the same row *)
  mutable rpv : int array;
  mutable atop : int;  (* bump-allocation watermark *)
  mutable freeh : int;  (* free-list head, -1 when empty *)
  chead : int array;
  rhead : int array;
  ccnt : int array;
  rcnt : int array;
  cb_head : int array;  (* length m + 1 *)
  cb_nx : int array;
  cb_pv : int array;
  rb_head : int array;  (* length m + 1 *)
  rb_nx : int array;
  rb_pv : int array;
  (* Per-column magnitude maximum for the threshold test, recomputed
     lazily: eliminations mark every column they touch dirty. *)
  cmax : float array;
  cdirty : bool array;
  (* Rank-1 update workspace: row-pattern scatter, stamp-validated. *)
  pos : int array;
  pstamp : int array;
  mutable pst : int;
  mutable probes : int;  (* threshold-passing candidates, this factor *)
}

type t = {
  m : int;
  owner : int;  (* id of the creating domain; every call is owner-only *)
  (* Elimination history in pivot order, flat. Step k eliminated matrix
     row [lp_row.(k)] and basis slot [u_q.(k)] with pivot [u_diag.(k)];
     its below-pivot multipliers (by matrix row) are
     [l_idx/l_val.(l_start.(k) .. l_start.(k+1)-1)], its pivot-row
     entries in later slots (by slot) [u_idx/u_val.(u_start.(k) ..
     u_start.(k+1)-1)]. *)
  lp_row : int array;
  u_q : int array;
  u_diag : float array;
  l_start : int array;
  mutable l_idx : int array;
  mutable l_val : float array;
  u_start : int array;
  mutable u_idx : int array;
  mutable u_val : float array;
  mutable fill : int;  (* stored entries of L + U, diagonal included *)
  scratch : float array;
  (* Hyper-sparse solve support, rebuilt by every factorization.
     [step_of_row]/[step_of_slot] invert [lp_row]/[u_q]; the *_users
     arrays are the transposed dependency lists (flattened CSR-style):
     [uu_steps.(uu_ptr.(q) .. uu_ptr.(q+1)-1)] are the steps whose U row
     references slot [q], [lu_steps.(lu_ptr.(r) ..)] the steps whose L
     column references matrix row [r]. They let a triangular solve visit
     only the steps reachable from the nonzeros of its right-hand side
     (Gilbert-Peierls reachability, ordered by a sweep over the marked
     steps). *)
  step_of_row : int array;
  step_of_slot : int array;
  uu_ptr : int array;
  mutable uu_steps : int array;
  lu_ptr : int array;
  mutable lu_steps : int array;
  (* Sparse-solve workspaces. [sscratch] is all-zero between calls (the
     sparse kernels restore the entries they touch); [mark]/[mark2] are
     stamp-based visited sets so no O(m) clearing is ever needed. *)
  sscratch : float array;
  mark : int array;
  mark2 : int array;
  mutable stamp : int;
  buf_a : int array;
  buf_b : int array;
  (* Product-form eta file, flat: eta e pivots in slot [eta_r.(e)] with
     diagonal [eta_diag.(e)], and its off-pivot entries are
     [eta_idx/eta_val.(eta_start.(e) .. eta_start.(e+1)-1)]. *)
  mutable eta_r : int array;
  mutable eta_diag : float array;
  mutable eta_start : int array;
  mutable eta_idx : int array;
  mutable eta_val : float array;
  mutable neta : int;
  act : active;
}

let create m =
  {
    m;
    owner = (Domain.self () :> int);
    lp_row = Array.make m 0;
    u_q = Array.make m 0;
    u_diag = Array.make m 0.;
    l_start = Array.make (m + 1) 0;
    l_idx = [||];
    l_val = [||];
    u_start = Array.make (m + 1) 0;
    u_idx = [||];
    u_val = [||];
    fill = 0;
    scratch = Array.make m 0.;
    step_of_row = Array.make m 0;
    step_of_slot = Array.make m 0;
    uu_ptr = Array.make (m + 1) 0;
    uu_steps = [||];
    lu_ptr = Array.make (m + 1) 0;
    lu_steps = [||];
    sscratch = Array.make m 0.;
    mark = Array.make m (-1);
    mark2 = Array.make m (-1);
    stamp = 0;
    buf_a = Array.make m 0;
    buf_b = Array.make m 0;
    eta_r = [||];
    eta_diag = [||];
    eta_start = [| 0 |];
    eta_idx = [||];
    eta_val = [||];
    neta = 0;
    act =
      {
        e_row = [||];
        e_col = [||];
        e_val = [||];
        cnx = [||];
        cpv = [||];
        rnx = [||];
        rpv = [||];
        atop = 0;
        freeh = -1;
        chead = Array.make m (-1);
        rhead = Array.make m (-1);
        ccnt = Array.make m 0;
        rcnt = Array.make m 0;
        cb_head = Array.make (m + 1) (-1);
        cb_nx = Array.make m (-1);
        cb_pv = Array.make m (-1);
        rb_head = Array.make (m + 1) (-1);
        rb_nx = Array.make m (-1);
        rb_pv = Array.make m (-1);
        cmax = Array.make m 0.;
        cdirty = Array.make m true;
        pos = Array.make m (-1);
        pstamp = Array.make m 0;
        pst = 0;
        probes = 0;
      };
  }

let size lu = lu.m
let eta_count lu = lu.neta
let eta_nnz lu = lu.eta_start.(lu.neta)
let fill lu = lu.fill
let pivot_order lu = Array.init lu.m (fun k -> (lu.lp_row.(k), lu.u_q.(k)))

(* Ownership is structural: the workspace and the eta file are
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

(* Arena primitives. They take and return only ints (values are stored
   by the caller), so no float is ever boxed across a call. *)
let ensure_arena w n =
  if Array.length w.e_row < n then begin
    w.e_row <- grow_int w.e_row n;
    w.e_col <- grow_int w.e_col n;
    w.e_val <- grow_float w.e_val n;
    w.cnx <- grow_int w.cnx n;
    w.cpv <- grow_int w.cpv n;
    w.rnx <- grow_int w.rnx n;
    w.rpv <- grow_int w.rpv n
  end

let alloc w =
  if w.freeh >= 0 then begin
    let e = w.freeh in
    w.freeh <- w.cnx.(e);
    e
  end
  else begin
    ensure_arena w (w.atop + 1);
    let e = w.atop in
    w.atop <- w.atop + 1;
    e
  end

(* A new entry at (r, c), linked at the head of both lists; the caller
   stores its value. *)
let insert w r c =
  let e = alloc w in
  w.e_row.(e) <- r;
  w.e_col.(e) <- c;
  w.cnx.(e) <- w.chead.(c);
  w.cpv.(e) <- -1;
  if w.chead.(c) >= 0 then w.cpv.(w.chead.(c)) <- e;
  w.chead.(c) <- e;
  w.ccnt.(c) <- w.ccnt.(c) + 1;
  w.rnx.(e) <- w.rhead.(r);
  w.rpv.(e) <- -1;
  if w.rhead.(r) >= 0 then w.rpv.(w.rhead.(r)) <- e;
  w.rhead.(r) <- e;
  w.rcnt.(r) <- w.rcnt.(r) + 1;
  e

let remove_from_col w e =
  let nx = w.cnx.(e) and pv = w.cpv.(e) in
  if pv >= 0 then w.cnx.(pv) <- nx else w.chead.(w.e_col.(e)) <- nx;
  if nx >= 0 then w.cpv.(nx) <- pv

let remove_from_row w e =
  let nx = w.rnx.(e) and pv = w.rpv.(e) in
  if pv >= 0 then w.rnx.(pv) <- nx else w.rhead.(w.e_row.(e)) <- nx;
  if nx >= 0 then w.rpv.(nx) <- pv

let free_entry w e =
  w.cnx.(e) <- w.freeh;
  w.freeh <- e

(* Count buckets. A column (or row) always sits in the bucket of its
   current count; count-0 members land in bucket 0, which the search
   never visits (they cannot supply a pivot until fill-in revives them,
   and every count change relinks). Unlink before any count change: the
   head fixup reads the current count. *)
let cb_link w j =
  let k = w.ccnt.(j) in
  w.cb_nx.(j) <- w.cb_head.(k);
  w.cb_pv.(j) <- -1;
  if w.cb_head.(k) >= 0 then w.cb_pv.(w.cb_head.(k)) <- j;
  w.cb_head.(k) <- j

let cb_unlink w j =
  let nx = w.cb_nx.(j) and pv = w.cb_pv.(j) in
  if pv >= 0 then w.cb_nx.(pv) <- nx else w.cb_head.(w.ccnt.(j)) <- nx;
  if nx >= 0 then w.cb_pv.(nx) <- pv

let rb_link w i =
  let k = w.rcnt.(i) in
  w.rb_nx.(i) <- w.rb_head.(k);
  w.rb_pv.(i) <- -1;
  if w.rb_head.(k) >= 0 then w.rb_pv.(w.rb_head.(k)) <- i;
  w.rb_head.(k) <- i

let rb_unlink w i =
  let nx = w.rb_nx.(i) and pv = w.rb_pv.(i) in
  if pv >= 0 then w.rb_nx.(pv) <- nx else w.rb_head.(w.rcnt.(i)) <- nx;
  if nx >= 0 then w.rb_pv.(nx) <- pv

(* Bring [cmax.(j)] up to date; a pivot search reuses a clean maximum
   across however many candidate entries it probes in that column. *)
let refresh_colmax w j =
  if w.cdirty.(j) then begin
    let mx = ref 0. in
    let e = ref w.chead.(j) in
    while !e >= 0 do
      let av = Float.abs w.e_val.(!e) in
      if av > !mx then mx := av;
      e := w.cnx.(!e)
    done;
    w.cmax.(j) <- !mx;
    w.cdirty.(j) <- false
  end

(* Load the basis columns into the active submatrix, all counts and
   buckets fresh. *)
let load_active w (a : Sparse.Csc.mat) basis m =
  let nnz = ref 0 in
  for j = 0 to m - 1 do
    let c = basis.(j) in
    nnz := !nnz + a.colptr.(c + 1) - a.colptr.(c)
  done;
  (* Room for the loaded entries; [alloc] grows the arena on demand as
     fill-in outruns it. *)
  ensure_arena w (Int.max 32 !nnz);
  w.atop <- 0;
  w.freeh <- -1;
  Array.fill w.chead 0 m (-1);
  Array.fill w.rhead 0 m (-1);
  Array.fill w.ccnt 0 m 0;
  Array.fill w.rcnt 0 m 0;
  for j = 0 to m - 1 do
    let c = basis.(j) in
    for p = a.colptr.(c) to a.colptr.(c + 1) - 1 do
      let e = insert w a.rowind.(p) j in
      w.e_val.(e) <- a.values.(p)
    done
  done;
  Array.fill w.cb_head 0 (m + 1) (-1);
  Array.fill w.rb_head 0 (m + 1) (-1);
  for j = 0 to m - 1 do
    cb_link w j
  done;
  for i = 0 to m - 1 do
    rb_link w i
  done;
  Array.fill w.cdirty 0 m true

(* Markowitz search over the count buckets. Buckets are visited in
   increasing count order, and the search stops as soon as no unseen
   candidate can beat the best cost found: after both count-[<= k-1]
   bucket families have been scanned, any unseen entry has column {e and}
   row count [>= k], i.e. cost [>= (k-1)^2]. Returns the chosen entry,
   or [-1] when no entry passes the threshold test. *)
let find_pivot w m =
  let best_e = ref (-1) and best_cost = ref max_int and best_mag = ref 0. in
  let pstep = ref 0 in
  let k = ref 1 in
  let searching = ref true in
  while !searching && !k <= m do
    if !best_e >= 0 && !best_cost <= (!k - 1) * (!k - 1) then
      searching := false
    else begin
      (* columns of count k *)
      let j = ref w.cb_head.(!k) in
      while !searching && !j >= 0 do
        let nj = w.cb_nx.(!j) in
        refresh_colmax w !j;
        let mx = w.cmax.(!j) in
        if mx >= abs_tol then begin
          let e = ref w.chead.(!j) in
          while !e >= 0 do
            let av = Float.abs w.e_val.(!e) in
            if av >= tau *. mx && av >= abs_tol then begin
              incr pstep;
              let cost = (!k - 1) * (w.rcnt.(w.e_row.(!e)) - 1) in
              if cost < !best_cost || (cost = !best_cost && av > !best_mag)
              then begin
                best_cost := cost;
                best_mag := av;
                best_e := !e
              end
            end;
            e := w.cnx.(!e)
          done;
          if !best_cost = 0 || (!best_e >= 0 && !pstep >= max_probes) then
            searching := false
        end;
        j := nj
      done;
      (* rows of count k; entries in columns of count <= k were already
         seen from the column side *)
      if !searching then begin
        let i = ref w.rb_head.(!k) in
        while !searching && !i >= 0 do
          let ni = w.rb_nx.(!i) in
          let e = ref w.rhead.(!i) in
          while !e >= 0 do
            let c = w.e_col.(!e) in
            if w.ccnt.(c) > !k then begin
              refresh_colmax w c;
              let mx = w.cmax.(c) in
              let av = Float.abs w.e_val.(!e) in
              if mx >= abs_tol && av >= tau *. mx && av >= abs_tol then begin
                incr pstep;
                let cost = (w.ccnt.(c) - 1) * (!k - 1) in
                if cost < !best_cost || (cost = !best_cost && av > !best_mag)
                then begin
                  best_cost := cost;
                  best_mag := av;
                  best_e := !e
                end
              end
            end;
            e := w.rnx.(!e)
          done;
          if !best_cost = 0 || (!best_e >= 0 && !pstep >= max_probes) then
            searching := false;
          i := ni
        done
      end;
      incr k
    end
  done;
  w.probes <- w.probes + !pstep;
  !best_e

(* Elimination step [step] on pivot entry [e0]: append the L column and
   U row to the flat factors while the lists are intact, splice the
   pivot column and row out, then apply the rank-1 Schur-complement
   update in O(entries touched) by scattering each L row's column
   pattern and walking the U row against it. *)
let eliminate lu w step e0 =
  let p = w.e_row.(e0) and q = w.e_col.(e0) in
  let v = w.e_val.(e0) in
  lu.lp_row.(step) <- p;
  lu.u_q.(step) <- q;
  lu.u_diag.(step) <- v;
  let nl = w.ccnt.(q) - 1 and nu = w.rcnt.(p) - 1 in
  let l0 = lu.l_start.(step) and u0 = lu.u_start.(step) in
  if Array.length lu.l_idx < l0 + nl then begin
    lu.l_idx <- grow_int lu.l_idx (l0 + nl);
    lu.l_val <- grow_float lu.l_val (l0 + nl)
  end;
  if Array.length lu.u_idx < u0 + nu then begin
    lu.u_idx <- grow_int lu.u_idx (u0 + nu);
    lu.u_val <- grow_float lu.u_val (u0 + nu)
  end;
  let l_idx = lu.l_idx and l_val = lu.l_val in
  let u_idx = lu.u_idx and u_val = lu.u_val in
  let n = ref l0 in
  let e = ref w.chead.(q) in
  while !e >= 0 do
    let r = w.e_row.(!e) in
    if r <> p then begin
      l_idx.(!n) <- r;
      l_val.(!n) <- w.e_val.(!e) /. v;
      incr n
    end;
    e := w.cnx.(!e)
  done;
  let n = ref u0 in
  let e = ref w.rhead.(p) in
  while !e >= 0 do
    let c = w.e_col.(!e) in
    if c <> q then begin
      u_idx.(!n) <- c;
      u_val.(!n) <- w.e_val.(!e);
      incr n
    end;
    e := w.rnx.(!e)
  done;
  lu.l_start.(step + 1) <- l0 + nl;
  lu.u_start.(step + 1) <- u0 + nu;
  (* detach the pivot column and row *)
  cb_unlink w q;
  rb_unlink w p;
  let e = ref w.chead.(q) in
  while !e >= 0 do
    let nx = w.cnx.(!e) in
    let r = w.e_row.(!e) in
    remove_from_row w !e;
    if r <> p then begin
      rb_unlink w r;
      w.rcnt.(r) <- w.rcnt.(r) - 1;
      rb_link w r
    end;
    free_entry w !e;
    e := nx
  done;
  w.chead.(q) <- -1;
  w.ccnt.(q) <- 0;
  let e = ref w.rhead.(p) in
  while !e >= 0 do
    let nx = w.rnx.(!e) in
    let c = w.e_col.(!e) in
    remove_from_col w !e;
    cb_unlink w c;
    w.ccnt.(c) <- w.ccnt.(c) - 1;
    cb_link w c;
    w.cdirty.(c) <- true;
    free_entry w !e;
    e := nx
  done;
  w.rhead.(p) <- -1;
  w.rcnt.(p) <- 0;
  for il = l0 to l0 + nl - 1 do
    let r = l_idx.(il) and l = l_val.(il) in
    w.pst <- w.pst + 1;
    let s = w.pst in
    let e = ref w.rhead.(r) in
    while !e >= 0 do
      w.pos.(w.e_col.(!e)) <- !e;
      w.pstamp.(w.e_col.(!e)) <- s;
      e := w.rnx.(!e)
    done;
    rb_unlink w r;
    for iu = u0 to u0 + nu - 1 do
      let c = u_idx.(iu) in
      let delta = -.l *. u_val.(iu) in
      if w.pstamp.(c) = s && w.pos.(c) >= 0 then begin
        let e = w.pos.(c) in
        let nv = w.e_val.(e) +. delta in
        if Float.abs nv <= drop_tol then begin
          cb_unlink w c;
          remove_from_col w e;
          w.ccnt.(c) <- w.ccnt.(c) - 1;
          cb_link w c;
          remove_from_row w e;
          w.rcnt.(r) <- w.rcnt.(r) - 1;
          free_entry w e;
          w.pos.(c) <- -1;
          w.cdirty.(c) <- true
        end
        else begin
          w.e_val.(e) <- nv;
          w.cdirty.(c) <- true
        end
      end
      else if Float.abs delta > drop_tol then begin
        cb_unlink w c;
        let e = insert w r c in
        w.e_val.(e) <- delta;
        cb_link w c;
        w.cdirty.(c) <- true
      end
    done;
    rb_link w r
  done

(* Transposed dependency lists [ptr]/[steps] of the flat factor
   [start]/[idx] (entries index [0, m)), returned as the possibly grown
   [steps] array. Counting sort: [ptr.(i)] first counts, then holds the
   end of list [i], and placing steps from the last one backwards leaves
   it at the start of list [i] with every list in increasing step
   order. *)
let transpose m start idx ptr steps =
  Array.fill ptr 0 (m + 1) 0;
  let total = start.(m) in
  for n = 0 to total - 1 do
    ptr.(idx.(n)) <- ptr.(idx.(n)) + 1
  done;
  for i = 1 to m - 1 do
    ptr.(i) <- ptr.(i) + ptr.(i - 1)
  done;
  ptr.(m) <- total;
  let steps = grow_int steps total in
  for k = m - 1 downto 0 do
    for n = start.(k + 1) - 1 downto start.(k) do
      let i = idx.(n) in
      ptr.(i) <- ptr.(i) - 1;
      steps.(ptr.(i)) <- k
    done
  done;
  steps

let refactor ?(trace = Trace.null_writer) ?metrics lu
    (a : Sparse.Csc.mat) (basis : int array) =
  check_owner lu "refactor";
  let t_start = if Trace.active trace then Mono.now () else 0. in
  let m = lu.m in
  if Array.length basis <> m || a.nrows <> m then
    invalid_arg "Lu.refactor: dimension mismatch";
  lu.neta <- 0;
  let w = lu.act in
  load_active w a basis m;
  w.probes <- 0;
  for step = 0 to m - 1 do
    let e0 = find_pivot w m in
    if e0 < 0 then raise Singular;
    eliminate lu w step e0
  done;
  lu.fill <- m + lu.l_start.(m) + lu.u_start.(m);
  if Trace.active trace then
    Trace.emit trace
      (Trace.Lu_factor
         { m; fill = lu.fill; probes = w.probes; dt = Mono.now () -. t_start });
  (match metrics with
   | Some sh -> Metrics.add sh Metrics.C_lu_probes w.probes
   | None -> ());
  (* Inverse permutations and transposed dependency lists. *)
  for k = 0 to m - 1 do
    lu.step_of_row.(lu.lp_row.(k)) <- k;
    lu.step_of_slot.(lu.u_q.(k)) <- k
  done;
  lu.uu_steps <- transpose m lu.u_start lu.u_idx lu.uu_ptr lu.uu_steps;
  lu.lu_steps <- transpose m lu.l_start lu.l_idx lu.lu_ptr lu.lu_steps

let factor ?trace ?metrics (a : Sparse.Csc.mat) (basis : int array) =
  let lu = create (Array.length basis) in
  refactor ?trace ?metrics lu a basis;
  lu

let ftran lu b =
  check_owner lu "ftran";
  let m = lu.m in
  let lp_row = lu.lp_row in
  (* apply L^-1 in pivot order *)
  let ls = lu.l_start and l_idx = lu.l_idx and l_val = lu.l_val in
  for k = 0 to m - 1 do
    let t = b.(lp_row.(k)) in
    if t <> 0. then
      for n = ls.(k) to ls.(k + 1) - 1 do
        let r = l_idx.(n) in
        b.(r) <- b.(r) -. (l_val.(n) *. t)
      done
  done;
  (* back-substitute U: x indexed by slot, built in scratch *)
  let x = lu.scratch in
  let us = lu.u_start and u_idx = lu.u_idx and u_val = lu.u_val in
  for k = m - 1 downto 0 do
    let s = ref b.(lp_row.(k)) in
    for n = us.(k) to us.(k + 1) - 1 do
      s := !s -. (u_val.(n) *. x.(u_idx.(n)))
    done;
    x.(lu.u_q.(k)) <- !s /. lu.u_diag.(k)
  done;
  Array.blit x 0 b 0 m;
  (* product-form etas, oldest first *)
  let es = lu.eta_start and e_idx = lu.eta_idx and e_val = lu.eta_val in
  for e = 0 to lu.neta - 1 do
    let r = lu.eta_r.(e) in
    let t = b.(r) /. lu.eta_diag.(e) in
    if t <> 0. then
      for n = es.(e) to es.(e + 1) - 1 do
        let i = e_idx.(n) in
        b.(i) <- b.(i) -. (e_val.(n) *. t)
      done;
    b.(r) <- t
  done

let btran lu c =
  check_owner lu "btran";
  let m = lu.m in
  (* eta transposes, newest first: c_r <- (c_r - ((w . c) - c_r)) / w_r
     folded as c_r - (w.c - c_r)/w_r *)
  let es = lu.eta_start and e_idx = lu.eta_idx and e_val = lu.eta_val in
  for e = lu.neta - 1 downto 0 do
    let r = lu.eta_r.(e) and diag = lu.eta_diag.(e) in
    let d = ref (diag *. c.(r)) in
    for n = es.(e) to es.(e + 1) - 1 do
      d := !d +. (e_val.(n) *. c.(e_idx.(n)))
    done;
    c.(r) <- c.(r) -. ((!d -. c.(r)) /. diag)
  done;
  (* forward-substitute U^T: input by slot (copied to scratch), output by
     matrix row written back into c *)
  let s = lu.scratch in
  Array.blit c 0 s 0 m;
  let us = lu.u_start and u_idx = lu.u_idx and u_val = lu.u_val in
  for k = 0 to m - 1 do
    let t = s.(lu.u_q.(k)) /. lu.u_diag.(k) in
    c.(lu.lp_row.(k)) <- t;
    if t <> 0. then
      for n = us.(k) to us.(k + 1) - 1 do
        let i = u_idx.(n) in
        s.(i) <- s.(i) -. (u_val.(n) *. t)
      done
  done;
  (* apply the transposed elimination steps in reverse pivot order *)
  let ls = lu.l_start and l_idx = lu.l_idx and l_val = lu.l_val in
  for k = m - 1 downto 0 do
    let p = lu.lp_row.(k) in
    let acc = ref c.(p) in
    for n = ls.(k) to ls.(k + 1) - 1 do
      acc := !acc -. (l_val.(n) *. c.(l_idx.(n)))
    done;
    c.(p) <- !acc
  done

(* ------------------------------------------------------------------ *)
(* Hyper-sparse solves                                                 *)
(* ------------------------------------------------------------------ *)

(* Each triangular phase visits the steps reachable from its seeds in
   step order without a priority queue. Every dependency points one way:
   an L column or a U^T row only reaches later steps, a U row or an L^T
   column only earlier ones. So a phase stamps its seeds in [mark], then
   sweeps the step range from the first seed towards the far end,
   processing the stamped steps and stamping the steps they reach, which
   always lie ahead of the sweep; the sweep stops at the farthest step
   stamped so far. That visits exactly the steps, and in exactly the
   order, that popping a heap keyed on the step would. *)

(* Density cutoff: below [m/8] input nonzeros the reachability sweep
   beats the dense loop comfortably; past it the bookkeeping starts to
   erode the win, so the caller falls back to the dense kernels
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
    let mark = lu.mark and buf_a = lu.buf_a and buf_b = lu.buf_b in
    let lp_row = lu.lp_row and step_of_row = lu.step_of_row in
    (* L phase: reachable steps in increasing order. *)
    lu.stamp <- lu.stamp + 1;
    let stamp = lu.stamp in
    let lo = ref m and hi = ref (-1) in
    for i = 0 to n - 1 do
      let k = step_of_row.(pat.(i)) in
      mark.(k) <- stamp;
      if k < !lo then lo := k;
      if k > !hi then hi := k
    done;
    let ls = lu.l_start and l_idx = lu.l_idx and l_val = lu.l_val in
    let na = ref 0 in
    let k = ref !lo in
    while !k <= !hi do
      if mark.(!k) = stamp then begin
        buf_a.(!na) <- !k;
        incr na;
        let t = b.(lp_row.(!k)) in
        if t <> 0. then
          for j = ls.(!k) to ls.(!k + 1) - 1 do
            let r = l_idx.(j) in
            b.(r) <- b.(r) -. (l_val.(j) *. t);
            let s = step_of_row.(r) in
            mark.(s) <- stamp;
            if s > !hi then hi := s
          done
      end;
      incr k
    done;
    (* U phase: back-substitute reachable steps in decreasing order.
       [sscratch] holds x by slot; entries of unreached steps are exactly
       zero by the workspace invariant. *)
    lu.stamp <- lu.stamp + 1;
    let stamp = lu.stamp in
    for i = 0 to !na - 1 do
      mark.(buf_a.(i)) <- stamp
    done;
    let x = lu.sscratch in
    let us = lu.u_start and u_idx = lu.u_idx and u_val = lu.u_val in
    let uu_ptr = lu.uu_ptr and uu_steps = lu.uu_steps in
    let nb = ref 0 in
    let lo = ref buf_a.(0) in
    let k = ref buf_a.(!na - 1) in
    while !k >= !lo do
      if mark.(!k) = stamp then begin
        buf_b.(!nb) <- !k;
        incr nb;
        let s = ref b.(lp_row.(!k)) in
        for j = us.(!k) to us.(!k + 1) - 1 do
          s := !s -. (u_val.(j) *. x.(u_idx.(j)))
        done;
        let q = lu.u_q.(!k) in
        let xv = !s /. lu.u_diag.(!k) in
        x.(q) <- xv;
        if xv <> 0. then
          for j = uu_ptr.(q) to uu_ptr.(q + 1) - 1 do
            let s = uu_steps.(j) in
            mark.(s) <- stamp;
            if s < !lo then lo := s
          done
      end;
      decr k
    done;
    (* Transfer x into b: clear the L-phase rows first, then write the
       slot-indexed result and restore the sscratch invariant. *)
    for i = 0 to !na - 1 do
      b.(lp_row.(buf_a.(i))) <- 0.
    done;
    lu.stamp <- lu.stamp + 1;
    let stamp = lu.stamp in
    let mark2 = lu.mark2 in
    let cnt = ref 0 in
    for i = 0 to !nb - 1 do
      let q = lu.u_q.(buf_b.(i)) in
      b.(q) <- x.(q);
      x.(q) <- 0.;
      mark2.(q) <- stamp;
      pat.(!cnt) <- q;
      incr cnt
    done;
    (* product-form etas, oldest first, growing the pattern as they
       spread *)
    let es = lu.eta_start and e_idx = lu.eta_idx and e_val = lu.eta_val in
    for e = 0 to lu.neta - 1 do
      let r = lu.eta_r.(e) in
      let t = b.(r) /. lu.eta_diag.(e) in
      if t <> 0. then begin
        for j = es.(e) to es.(e + 1) - 1 do
          let q = e_idx.(j) in
          b.(q) <- b.(q) -. (e_val.(j) *. t);
          if mark2.(q) <> stamp then begin
            mark2.(q) <- stamp;
            pat.(!cnt) <- q;
            incr cnt
          end
        done;
        b.(r) <- t
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
    let mark = lu.mark and mark2 = lu.mark2 in
    let buf_a = lu.buf_a and buf_b = lu.buf_b in
    (* eta transposes, newest first: only etas touching the current
       pattern can act; each can add at most its own pivot slot. *)
    lu.stamp <- lu.stamp + 1;
    let stamp = lu.stamp in
    let na = ref 0 in
    for i = 0 to n - 1 do
      mark2.(pat.(i)) <- stamp;
      buf_a.(!na) <- pat.(i);
      incr na
    done;
    let es = lu.eta_start and e_idx = lu.eta_idx and e_val = lu.eta_val in
    for e = lu.neta - 1 downto 0 do
      let r = lu.eta_r.(e) in
      let live = ref (mark2.(r) = stamp) in
      let j = ref es.(e) in
      let stop = es.(e + 1) in
      while (not !live) && !j < stop do
        if mark2.(e_idx.(!j)) = stamp then live := true;
        incr j
      done;
      if !live then begin
        let diag = lu.eta_diag.(e) in
        let d = ref (diag *. c.(r)) in
        for jj = es.(e) to stop - 1 do
          d := !d +. (e_val.(jj) *. c.(e_idx.(jj)))
        done;
        c.(r) <- c.(r) -. ((!d -. c.(r)) /. diag);
        if mark2.(r) <> stamp then begin
          mark2.(r) <- stamp;
          buf_a.(!na) <- r;
          incr na
        end
      end
    done;
    (* U^T phase: move the slot-indexed input into sscratch and
       forward-substitute reachable steps in increasing order, writing
       the row-indexed intermediate back into c. *)
    let s = lu.sscratch in
    let step_of_slot = lu.step_of_slot in
    lu.stamp <- lu.stamp + 1;
    let stamp = lu.stamp in
    let lo = ref m and hi = ref (-1) in
    for i = 0 to !na - 1 do
      let q = buf_a.(i) in
      s.(q) <- c.(q);
      c.(q) <- 0.;
      let k = step_of_slot.(q) in
      mark.(k) <- stamp;
      if k < !lo then lo := k;
      if k > !hi then hi := k
    done;
    let us = lu.u_start and u_idx = lu.u_idx and u_val = lu.u_val in
    let nb = ref 0 in
    let k = ref !lo in
    while !k <= !hi do
      if mark.(!k) = stamp then begin
        buf_b.(!nb) <- !k;
        incr nb;
        let t = s.(lu.u_q.(!k)) /. lu.u_diag.(!k) in
        c.(lu.lp_row.(!k)) <- t;
        if t <> 0. then
          for j = us.(!k) to us.(!k + 1) - 1 do
            let i = u_idx.(j) in
            s.(i) <- s.(i) -. (u_val.(j) *. t);
            let st = step_of_slot.(i) in
            mark.(st) <- stamp;
            if st > !hi then hi := st
          done
      end;
      incr k
    done;
    for i = 0 to !nb - 1 do
      s.(lu.u_q.(buf_b.(i))) <- 0.
    done;
    (* L^T phase: reachable steps in decreasing order. *)
    lu.stamp <- lu.stamp + 1;
    let stamp = lu.stamp in
    for i = 0 to !nb - 1 do
      mark.(buf_b.(i)) <- stamp
    done;
    let ls = lu.l_start and l_idx = lu.l_idx and l_val = lu.l_val in
    let lu_ptr = lu.lu_ptr and lu_steps = lu.lu_steps in
    let cnt = ref 0 in
    let lo = ref buf_b.(0) in
    let k = ref buf_b.(!nb - 1) in
    while !k >= !lo do
      if mark.(!k) = stamp then begin
        let p = lu.lp_row.(!k) in
        let acc = ref c.(p) in
        for j = ls.(!k) to ls.(!k + 1) - 1 do
          acc := !acc -. (l_val.(j) *. c.(l_idx.(j)))
        done;
        c.(p) <- !acc;
        pat.(!cnt) <- p;
        incr cnt;
        if !acc <> 0. then
          for j = lu_ptr.(p) to lu_ptr.(p + 1) - 1 do
            let st = lu_steps.(j) in
            mark.(st) <- stamp;
            if st < !lo then lo := st
          done
      end;
      decr k
    done;
    !cnt
  end

let update lu ~w ~r =
  check_owner lu "update";
  let piv = w.(r) in
  if Float.abs piv < abs_tol then raise Singular;
  let m = lu.m and e = lu.neta in
  (* One pass: append the off-pivot entries after the last eta, then
     commit them unless the exchange is an exact identity (unit pivot,
     no off-pivot entries), which is a no-op in every solve. *)
  let start = lu.eta_start.(e) in
  if Array.length lu.eta_idx < start + m then begin
    lu.eta_idx <- grow_int lu.eta_idx (start + m);
    lu.eta_val <- grow_float lu.eta_val (start + m)
  end;
  let e_idx = lu.eta_idx and e_val = lu.eta_val in
  let top = ref start in
  for i = 0 to m - 1 do
    if i <> r && Float.abs w.(i) > drop_tol then begin
      e_idx.(!top) <- i;
      e_val.(!top) <- w.(i);
      incr top
    end
  done;
  if not (!top = start && piv = 1.) then begin
    if Array.length lu.eta_r <= e then begin
      lu.eta_r <- grow_int lu.eta_r (e + 1);
      lu.eta_diag <- grow_float lu.eta_diag (e + 1);
      lu.eta_start <- grow_int lu.eta_start (Array.length lu.eta_r + 1)
    end;
    lu.eta_r.(e) <- r;
    lu.eta_diag.(e) <- piv;
    lu.eta_start.(e + 1) <- !top;
    lu.neta <- e + 1
  end
