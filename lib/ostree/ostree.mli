(** Order-statistic sets of integers.

    Algorithm KKβ keeps its FREE set in "some tree structure like
    red-black tree or some variant of B-tree" (paper §3) so that
    insert, delete, membership and — crucially — the rank/select
    queries used by [compNext] all cost O(log n).  The paper names
    those trees as examples, not requirements; this module meets the
    bounds with a mutable bitset over a fixed universe [0..cap]: one
    bit per element, 62 to a word, plus a Fenwick tree over the
    per-word popcounts.

    - [mem], [add] and [remove] are O(1) plus, for a change, one
      O(log(cap/62)) Fenwick update; they allocate nothing.
    - [count_le], [rank] and [select] are O(log cap).
    - A set takes about [cap/31] words.

    Ranks are 1-based throughout, matching Definition 2.3 of the
    paper: the rank of [x] in [s] is its position when the elements of
    [s] are sorted ascending.

    Sets are mutable, and a process's working FREE is never shared:
    {!Core.Kk} copies the set it is given (keeping that set, never
    mutated, as FREE₀), so a process of the simulated machine cannot
    reach another process's state except through the shared memory. *)

type t

val create : int -> t
(** [create cap] is an empty set over the universe [0..cap].
    @raise Invalid_argument if [cap < 0]. *)

val of_range : int -> int -> t
(** [of_range lo hi] is [{lo, lo+1, ..., hi}] over the universe
    [0..max hi 0], built word by word in O(hi/62); empty when
    [hi < lo].  @raise Invalid_argument if [lo < 0] and [hi >= lo]. *)

val build : int -> ((int -> unit) -> unit) -> t
(** [build cap f] is the set over [0..cap] of every element [f] passes
    to its argument (repeats allowed), built in O(cap/62 + k) for k
    insertions: the bits first, the Fenwick tree once at the end.
    @raise Invalid_argument on an element outside [0..cap]. *)

val of_list : int list -> t
(** The set of the list's elements over [0..max element]. *)

val copy : t -> t

val is_empty : t -> bool

val cardinal : t -> int
(** Number of elements; O(1). *)

val mem : int -> t -> bool
(** [false] for any [x] outside the universe. *)

val add : int -> t -> unit
(** [add x s] makes [s] be [s ∪ {x}]; a no-op when [x] is present.
    @raise Invalid_argument if [x] is outside the universe. *)

val remove : int -> t -> unit
(** [remove x s] makes [s] be [s \ {x}]; a no-op when [x] is absent,
    including outside the universe. *)

val min_elt : t -> int
(** @raise Not_found on the empty set. *)

val max_elt : t -> int
(** @raise Not_found on the empty set. *)

val select : t -> int -> int
(** [select s i] is the element of rank [i] (1-based).
    @raise Invalid_argument unless [1 <= i <= cardinal s]. *)

val rank : int -> t -> int
(** [rank x s] is the 1-based rank of [x] in [s].
    @raise Not_found if [x] is not in [s]. *)

val count_le : int -> t -> int
(** [count_le x s] is [|{y ∈ s | y <= x}|]; O(log n), defined for any
    [x]. *)

val diff_cardinal : t -> Trybuf.t -> int
(** [diff_cardinal s b] is [|s \ b|], in O(|b|) — the test the
    algorithm performs against the termination parameter β.  Elements
    of [b] outside [s] are not counted. *)

val rank_diff : t -> Trybuf.t -> int -> int
(** [rank_diff s b i] is the paper's [rank(SET1, SET2, i)]: the
    element of [s \ b] of rank [i].  Cost O(|b| + (|b ∩ s| + 1) · log n)
    and no allocation; intended for small [b] (in KKβ, [|TRY| < m]).
    @raise Invalid_argument unless [1 <= i <= diff_cardinal s b]. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Ascending fold. *)

val iter : (int -> unit) -> t -> unit
(** Ascending iteration. *)

val elements : t -> int list
(** Ascending list of elements. *)

val equal : t -> t -> bool
(** Same elements, whatever the universes. *)

val subset : t -> t -> bool
(** [subset s1 s2] tests [s1 ⊆ s2]. *)

val check_invariants : t -> unit
(** Validates that no bit lies outside the universe, that the cached
    cardinality is the sum of the word popcounts, and that every
    Fenwick node holds the popcount sum of its range; raises [Failure]
    with a description on the first violation.  Used by the test
    suite only. *)

val pp : Format.formatter -> t -> unit
(** Prints [{x1, x2, ...}] in ascending order. *)
