(** KKβ (Fig. 2) and IterativeKK(ε) (Fig. 3) in direct style.

    {!Kk} is the simulator's automaton: one atomic action per step,
    driven by {!Shm.Executor}.  This module is the same algorithm as a
    plain loop that calls a memory value for every shared access — the
    one body behind both real backends: the domain runner
    ([Multicore.Runner], atomic cells) and the message-passing clients
    ([Msg.Kk_mp], ABD-emulated registers).  A new register emulation
    is a new {!mem}, not a new transcription.

    The order of shared accesses is part of the contract: over ABD it
    fixes the delivery schedule.  Each iteration writes its own
    [next], reads [next\[q\]] for every other [q] in ascending order,
    then, for every other [q] in ascending order, reads the unread
    prefix of row [q] of [done] up to its first empty cell; only then
    (IterStepKK) the termination flag, and finally its own next
    [done] cell. *)

type mem = {
  cols : int;  (** columns of the done matrix: n, or a level's blocks *)
  read_next : int -> int;  (** [read_next q] reads [next\[q\]] *)
  write_next : int -> unit;  (** writes the calling process's [next] *)
  read_done : int -> int -> int;  (** [read_done q c] reads [done\[q\]\[c\]] *)
  write_done : int -> int -> unit;
      (** [write_done c v] writes the calling process's [done\[c\]] *)
}
(** One process's view of an instance's shared registers, 1-based.
    Cells hold job ids; 0 means empty. *)

type flag = { is_set : unit -> bool; set : unit -> unit }
(** An IterStepKK instance's multi-writer termination flag.  Reading
    it is a shared access of its own (a full ABD read over message
    passing), so plain KKβ has none. *)

val kk :
  ledger:Shm.Metrics.t ->
  ?budget:int ->
  m:int ->
  beta:int ->
  policy:Policy.t ->
  pid:int ->
  mem ->
  do_job:(int -> unit) ->
  unit
(** [kk ~m ~beta ~policy ~pid mem ~do_job] runs process [pid]'s KKβ
    on jobs [1..mem.cols] until [|FREE \ TRY| < beta], calling
    [do_job] once per performed job.  [budget] (default unlimited)
    stops the process silently after that many jobs — a crash, as far
    as the others can tell.  [ledger] is charged the reads, writes,
    internal actions and work units of the run as {!Kk} charges them,
    except that the final failed [compNext] check is free here. *)

val iterative :
  ledger:Shm.Metrics.t ->
  hierarchy:Superjob.t ->
  m:int ->
  pid:int ->
  (int -> mem * flag) ->
  perform:(level:int -> int -> unit) ->
  unit
(** [iterative ~hierarchy ~m ~pid level ~perform] runs process
    [pid]'s IterativeKK(ε) (at-most-once variant): one IterStepKK
    instance per level of [hierarchy], β = 3m², the paper's
    [Rank_split] rule, each level's output FREE \ TRY mapped down as
    the next level's FREE.  [level l] gives level [l]'s registers and
    flag; [perform ~level id] is called once per performed super-job.
    [ledger] is charged as in {!kk}, except that a do costs one unit
    whatever the super-job's size and the hand-over between levels is
    not charged (both are charged by {!Iterative}). *)
