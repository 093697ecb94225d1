(** Sparse vectors stored as parallel (index, value) arrays.

    Used for the columns of the constraint matrix in the simplex kernels.
    Entries are kept sorted by index and free of explicit zeros. *)

type t = private {
  idx : int array;  (** Row indices, strictly increasing. *)
  value : float array;  (** Matching coefficients, all non-zero. *)
}

val empty : t
(** The all-zero vector (no stored entries). *)

val of_assoc : (int * float) list -> t
(** [of_assoc l] builds a sparse vector from (index, coefficient) pairs.
    Duplicate indices are summed; resulting zeros (within [1e-13]) are
    dropped. Raises [Invalid_argument] on a negative index. *)

val nnz : t -> int
(** Number of stored entries. *)

val get : t -> int -> float
(** [get v i] is the coefficient at index [i] ([0.] if absent).
    Logarithmic in [nnz v]. *)

val dot_dense : t -> float array -> float
(** [dot_dense v d] is the inner product with a dense vector. *)

val add_to_dense : ?scale:float -> t -> float array -> unit
(** [add_to_dense ~scale v d] performs [d <- d + scale * v] (default
    [scale = 1.]). *)

val iter : (int -> float -> unit) -> t -> unit
(** [iter f v] applies [f index value] over stored entries, in
    increasing index order. *)

val fold : (int -> float -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f v init] folds over stored entries in increasing index
    order. *)

val to_list : t -> (int * float) list
(** Stored (index, value) pairs in increasing index order. *)

val pp : Format.formatter -> t -> unit
(** Prints as [{i:v; i:v; ...}]. *)

(** Compressed sparse column (CSC) matrices.

    The storage format of the simplex constraint matrix: all columns
    packed into three parallel arrays, so a column scan is a contiguous
    sweep with no per-column indirection or allocation. Built once from
    {!t} columns at solver-creation time and never mutated. *)
module Csc : sig
  type mat = private {
    nrows : int;  (** Row dimension (rows may be empty). *)
    ncols : int;  (** Number of stored columns. *)
    colptr : int array;
        (** Length [ncols + 1]; column [j] occupies the index range
            [colptr.(j) .. colptr.(j+1) - 1] of {!rowind}/{!values}. *)
    rowind : int array;  (** Row index of each entry, sorted per column. *)
    values : float array;  (** Coefficient of each entry, non-zero. *)
  }

  val of_columns : nrows:int -> t array -> mat
  (** [of_columns ~nrows cols] packs sparse columns into CSC form.
      Raises [Invalid_argument] if an entry's row index is [>= nrows]. *)

  val nnz : mat -> int
  (** Total stored entries. *)

  val col_nnz : mat -> int -> int
  (** Stored entries of one column. *)

  val iter_col : mat -> int -> (int -> float -> unit) -> unit
  (** [iter_col m j f] applies [f row value] over column [j]'s entries. *)

  val dot_col_dense : mat -> int -> float array -> float
  (** [dot_col_dense m j d] is the inner product of column [j] with a
      dense vector indexed by row. *)

  val add_col_to_dense : ?scale:float -> mat -> int -> float array -> unit
  (** [add_col_to_dense ~scale m j d] performs
      [d <- d + scale * column j] (default [scale = 1.]). *)
end

(** Compressed sparse row (CSR) matrices.

    A row-major mirror of a {!Csc.mat}, built once and never mutated.
    The simplex uses it to form the pricing row [alpha = rho A] by
    scanning only the rows where [rho] is nonzero — the column-major
    layout would force a dot product per column instead. *)
module Csr : sig
  type mat = private {
    nrows : int;
    ncols : int;
    rowptr : int array;
        (** Length [nrows + 1]; row [i] occupies the index range
            [rowptr.(i) .. rowptr.(i+1) - 1] of {!colind}/{!values}. *)
    colind : int array;  (** Column index of each entry, sorted per row. *)
    values : float array;  (** Coefficient of each entry, non-zero. *)
  }

  val of_csc : Csc.mat -> mat
  (** Transposes the storage layout; entry values and count are
      identical to the source. *)

  val row_nnz : mat -> int -> int
  (** Stored entries of one row. *)
end
