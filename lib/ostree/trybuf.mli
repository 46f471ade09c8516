(** KKβ's TRY set: a sorted, duplicate-free buffer of fixed capacity.

    TRY holds the announcements a process gathered from the other
    processes since its last [compNext], so it never has more than
    [m − 1] elements and is emptied at every [compNext].  A sorted
    [int array] of capacity [m] keeps it without allocation; inserts
    cost O(m), membership and the ascending scans used by
    {!Ostree.diff_cardinal} and {!Ostree.rank_diff} O(|TRY|). *)

type t

val create : int -> t
(** [create cap] is an empty buffer that can hold [cap] elements. *)

val clear : t -> unit

val cardinal : t -> int

val get : t -> int -> int
(** [get b k] is the element of 0-based rank [k], ascending.
    @raise Invalid_argument unless [0 <= k < cardinal b]. *)

val mem : int -> t -> bool

val add : int -> t -> unit
(** [add x b] inserts [x] in order; a no-op when [x] is present.
    @raise Invalid_argument when [x] is new and [b] is full. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Ascending fold. *)

val iter : (int -> unit) -> t -> unit
(** Ascending iteration. *)

val elements : t -> int list
(** Ascending list of elements. *)

val of_list : int list -> t
(** A buffer holding the distinct elements of the list, with capacity
    its length. *)
