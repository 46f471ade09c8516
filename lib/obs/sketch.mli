(** Mergeable quantile sketches with bounded relative error.

    Each {!Logbucket} power-of-two band is subdivided into [k] linear
    sub-buckets (k a power of two, default 32), tightening a plain
    histogram's factor-of-2 tail resolution to a [1/k] relative-error
    bound while staying constant-space and O(1) per insert.  Merging
    is a pointwise sum — exact — so per-domain sketches combine into a
    run-wide one with no re-bucketing error.  With [k = 1] the sketch
    is that factor-of-2 histogram: the estimate is the covering
    band's upper edge, capped at the max (pinned by test against a
    sorted-sample reference; {!Profile} uses this setting). *)

type t

val default_sub_buckets : int
(** 32, i.e. relative error bound ~3.1%. *)

val create : ?sub_buckets:int -> unit -> t
(** @raise Invalid_argument unless [sub_buckets] is a positive power
    of two. *)

val sub_buckets : t -> int

val add : t -> int -> unit
(** Record one sample.  Negative values clamp to 0. *)

val count : t -> int
(** Number of recorded samples. *)

val total : t -> float
(** Sum of samples (float: sums of near-[max_int] samples overflow). *)

val sum : t -> float
(** Alias of {!total}: the [_sum] quantity Prometheus histograms
    expose. *)

val min_value : t -> int
val max_value : t -> int
val mean : t -> float

val percentile : t -> float -> int
(** Upper-edge estimate of the covering sub-bucket, capped at the true
    max; at most [(1 + 1/k)] times the exact quantile.  [100.] returns
    the exact max.  @raise Invalid_argument outside [\[0,100\]]. *)

val relative_error : t -> float
(** The [1/k] overshoot bound {!percentile} guarantees. *)

val merge : t -> t -> t
(** Pointwise sum; exact.  @raise Invalid_argument on differing
    [sub_buckets], naming both [k] values. *)

val buckets : t -> (int * int) list
(** Non-empty [(flat_slot, count)] pairs, ascending. *)

val cumulative : t -> (int * int) list
(** [(upper_edge, samples <= upper_edge)] over non-empty slots,
    ascending — the cumulative shape Prometheus histograms use. *)

val to_json : t -> Json.t
val pp : Format.formatter -> t -> unit
