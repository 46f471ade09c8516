(** Power-of-two bucket boundaries: {!Sketch}'s bands and
    {!Heatmap}'s step buckets.

    Bucket [0] holds the value [0] (and clamped negatives); bucket [b]
    ([b >= 1]) holds values in [[2^(b-1), 2^b - 1]]; the top bucket
    (62) absorbs everything up to [max_int]. *)

val top_bucket : int
(** Index of the last bucket (62). *)

val of_value : int -> int
(** The bucket index a value lands in ([0..62]).  Non-positive values
    land in bucket 0. *)

val lo : int -> int
(** Smallest value of a bucket ([0] for bucket 0). *)

val hi : int -> int
(** Largest value of a bucket ([max_int] for the top bucket). *)

val width : int -> int
(** [hi b - lo b + 1], saturating; [1] for bucket 0. *)

(** {2 k-way sub-bucket slotting}

    Each band subdivided into [k] equal-width linear sub-buckets,
    flattened to [1 + top_bucket * k] slots.  At [k = 1] the slot
    index is the band index. *)

val n_slots : k:int -> int
(** Number of flat slots, [1 + top_bucket * k]. *)

val sub_width : k:int -> int -> int
(** Width of one sub-bucket of band [b]; at least [1] (narrow low
    bands have fewer than [k] distinct values). *)

val slot_of : k:int -> int -> int
(** The flat slot a value lands in ([0 .. n_slots-1]).  Non-positive
    values land in slot 0.  [slot_of ~k:1] = {!of_value}. *)

val slot_hi : k:int -> int -> int
(** Largest value covered by flat slot [i], capped at the band's upper
    edge.  [slot_hi ~k:1] = {!hi}. *)
