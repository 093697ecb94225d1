type t = { idx : int array; value : float array }

let empty = { idx = [||]; value = [||] }

let of_assoc l =
  List.iter
    (fun (i, _) -> if i < 0 then invalid_arg "Sparse.of_assoc: negative index")
    l;
  let sorted = List.sort (fun (i, _) (j, _) -> compare i j) l in
  (* Merge duplicates, drop (near-)zeros. *)
  let rec merge acc = function
    | [] -> List.rev acc
    | (i, v) :: rest ->
      let rec take_same v = function
        | (j, w) :: rest' when j = i -> take_same (v +. w) rest'
        | rest' -> (v, rest')
      in
      let v, rest = take_same v rest in
      if Float.abs v <= 1e-13 then merge acc rest else merge ((i, v) :: acc) rest
  in
  let merged = merge [] sorted in
  {
    idx = Array.of_list (List.map fst merged);
    value = Array.of_list (List.map snd merged);
  }

let nnz v = Array.length v.idx

let get v i =
  (* Binary search over the sorted index array. *)
  let rec search lo hi =
    if lo > hi then 0.
    else
      let mid = (lo + hi) / 2 in
      let j = v.idx.(mid) in
      if j = i then v.value.(mid)
      else if j < i then search (mid + 1) hi
      else search lo (mid - 1)
  in
  search 0 (Array.length v.idx - 1)

let dot_dense v d =
  let acc = ref 0. in
  for k = 0 to Array.length v.idx - 1 do
    acc := !acc +. (v.value.(k) *. d.(v.idx.(k)))
  done;
  !acc

let add_to_dense ?(scale = 1.) v d =
  for k = 0 to Array.length v.idx - 1 do
    d.(v.idx.(k)) <- d.(v.idx.(k)) +. (scale *. v.value.(k))
  done

let iter f v =
  for k = 0 to Array.length v.idx - 1 do
    f v.idx.(k) v.value.(k)
  done

let fold f v init =
  let acc = ref init in
  for k = 0 to Array.length v.idx - 1 do
    acc := f v.idx.(k) v.value.(k) !acc
  done;
  !acc

let to_list v = fold (fun i x acc -> (i, x) :: acc) v [] |> List.rev

let pp ppf v =
  Format.fprintf ppf "{";
  Array.iteri
    (fun k i ->
      if k > 0 then Format.fprintf ppf "; ";
      Format.fprintf ppf "%d:%g" i v.value.(k))
    v.idx;
  Format.fprintf ppf "}"

module Csc = struct
  type mat = {
    nrows : int;
    ncols : int;
    colptr : int array;
    rowind : int array;
    values : float array;
  }

  let of_columns ~nrows cols =
    let ncols = Array.length cols in
    let colptr = Array.make (ncols + 1) 0 in
    for j = 0 to ncols - 1 do
      colptr.(j + 1) <- colptr.(j) + Array.length cols.(j).idx
    done;
    let total = colptr.(ncols) in
    let rowind = Array.make total 0 in
    let values = Array.make total 0. in
    for j = 0 to ncols - 1 do
      let base = colptr.(j) in
      let v = cols.(j) in
      for k = 0 to Array.length v.idx - 1 do
        if v.idx.(k) >= nrows then
          invalid_arg "Sparse.Csc.of_columns: row index out of range";
        rowind.(base + k) <- v.idx.(k);
        values.(base + k) <- v.value.(k)
      done
    done;
    { nrows; ncols; colptr; rowind; values }

  let nnz m = m.colptr.(m.ncols)

  let col_nnz m j = m.colptr.(j + 1) - m.colptr.(j)

  let iter_col m j f =
    for k = m.colptr.(j) to m.colptr.(j + 1) - 1 do
      f m.rowind.(k) m.values.(k)
    done

  let dot_col_dense m j d =
    let acc = ref 0. in
    for k = m.colptr.(j) to m.colptr.(j + 1) - 1 do
      acc := !acc +. (m.values.(k) *. d.(m.rowind.(k)))
    done;
    !acc

  let add_col_to_dense ?(scale = 1.) m j d =
    for k = m.colptr.(j) to m.colptr.(j + 1) - 1 do
      d.(m.rowind.(k)) <- d.(m.rowind.(k)) +. (scale *. m.values.(k))
    done
end

module Csr = struct
  type mat = {
    nrows : int;
    ncols : int;
    rowptr : int array;
    colind : int array;
    values : float array;
  }

  let of_csc (m : Csc.mat) =
    let nrows = m.Csc.nrows and ncols = m.Csc.ncols in
    let total = Csc.nnz m in
    let rowptr = Array.make (nrows + 1) 0 in
    for k = 0 to total - 1 do
      rowptr.(m.Csc.rowind.(k) + 1) <- rowptr.(m.Csc.rowind.(k) + 1) + 1
    done;
    for i = 1 to nrows do
      rowptr.(i) <- rowptr.(i) + rowptr.(i - 1)
    done;
    let colind = Array.make total 0 and values = Array.make total 0. in
    let fill = Array.copy rowptr in
    (* column-major sweep, so each row's entries come out sorted by
       column *)
    for j = 0 to ncols - 1 do
      for k = m.Csc.colptr.(j) to m.Csc.colptr.(j + 1) - 1 do
        let i = m.Csc.rowind.(k) in
        colind.(fill.(i)) <- j;
        values.(fill.(i)) <- m.Csc.values.(k);
        fill.(i) <- fill.(i) + 1
      done
    done;
    { nrows; ncols; rowptr; colind; values }

  let row_nnz m i = m.rowptr.(i + 1) - m.rowptr.(i)
end
