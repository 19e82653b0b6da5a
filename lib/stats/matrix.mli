(** Dense float matrices for P2P bandwidth/latency tables and heatmaps. *)

type t

val create : rows:int -> cols:int -> init:float -> t
val square : int -> init:float -> t
val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val update : t -> int -> int -> f:(float -> float) -> unit
val fill : t -> float -> unit
val copy : t -> t

val read_row : t -> int -> float array -> unit
(** [read_row t i dst] copies row [i] into [dst.(0 .. cols t - 1)].
    Unlike a loop of {!get}, it boxes no float, so hot loops that scan
    whole rows allocate nothing. *)

val write_row : t -> int -> float array -> unit
(** [write_row t i src] copies [src.(0 .. cols t - 1)] into row [i];
    the boxing-free counterpart of a loop of {!set}. *)

val map : t -> f:(float -> float) -> t
val iteri : t -> f:(row:int -> col:int -> float -> unit) -> unit

val off_diagonal_mean : t -> float
(** Mean of all entries with [row <> col] — the paper's "average of
    network load between all pairs of nodes" (§3.2.2). Requires at least
    a 2x2 matrix. *)

val symmetrize : t -> unit
(** Overwrite each (i,j),(j,i) pair with their mean, in place. Requires a
    square matrix. *)

val max_value : t -> float
val min_value : t -> float

val submatrix : t -> indices:int list -> t
(** Square selection of the given row/column indices, in order. *)

val add_pointwise : t -> t -> t
val scale : t -> float -> t
