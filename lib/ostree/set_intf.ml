(** The order-statistic set interface [Core.Kk.Make] is written
    against.

    The paper stores FREE, DONE and TRY in "some tree structure like
    red-black tree or some variant of B-tree" (§3); nothing in the
    algorithm depends on how the set is built, only on this
    interface: delete, membership and cardinality, plus the two
    set-difference queries against the TRY buffer ({!Trybuf}) that
    carry the rank/select.  Sets are mutable; [copy] gives a process
    its own FREE.  {!Ostree} (bitset + Fenwick tree) is the
    implementation every run uses; the test suite instantiates the
    algorithm over a sorted-list reference to check that the
    executions agree, and the benchmark over a timing wrapper of
    {!Ostree}. *)

module type S = sig
  type t

  val copy : t -> t
  val cardinal : t -> int
  val mem : int -> t -> bool
  val remove : int -> t -> unit
  val diff_cardinal : t -> Trybuf.t -> int
  val rank_diff : t -> Trybuf.t -> int -> int

  val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
  (** Ascending fold. *)
end
