(** The at-most-once specification and its measures.

    - Definition 2.2: an algorithm solves the at-most-once problem iff
      no job has two [Do] events across the whole execution —
      {!check_at_most_once} verifies this over a trace.
    - Definition 2.1/2.4: [Do(α)] is the number of {e distinct} jobs
      performed; effectiveness is its minimum over fair executions —
      {!do_count} measures a single execution, the benches take minima
      over adversarial samples.

    These checkers operate on the executor's trace, i.e. on the
    observable behaviour only — they share no state with the algorithm
    under test. *)

type violation = {
  job : int;
  first_pid : int;
  second_pid : int;
}
(** A doubly-performed job: who did it first and who repeated it. *)

val check_at_most_once : (int * int) list -> (unit, violation) result
(** [check_at_most_once dos] over chronological [(pid, job)] pairs. *)

val assert_at_most_once : (int * int) list -> unit
(** @raise Failure with a diagnostic on the first violation. *)

val do_count : (int * int) list -> int
(** Number of distinct jobs performed — [Do(α)]. *)

val performed_set : (int * int) list -> Ostree.t
(** The set [Jα] of performed jobs, a fresh set over [0..max job]
    built in one pass.  @raise Invalid_argument on a negative job. *)

val per_process_counts : m:int -> (int * int) list -> int array
(** [a.(p)] = jobs performed by process [p]; index 0 unused. *)

val undone_jobs : n:int -> (int * int) list -> int list
(** Ascending list of jobs never performed. *)

val pp_violation : Format.formatter -> violation -> unit
