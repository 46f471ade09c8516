(** Per-process, per-series work/read/write distributions.

    Theorem 5.6 bounds {e total} work, but adversarial schedules skew
    how that work lands on individual processes — a single total hides
    a starved or thrashing process.  A profile is a keyed family of
    {!Sketch}es with one sub-bucket per power-of-two band ([k = 1],
    factor-of-2 resolution): [(pid, series)] where a series is a named
    quantity ("work", "reads", "writes", or any phase label an instrumented
    component chooses, e.g. via {!Bridge.profile_probe}).  The bench
    experiments (E4/E5) aggregate one sample per process per run and
    report tail percentiles instead of single totals. *)

type t

val create : unit -> t

val add : t -> pid:int -> series:string -> int -> unit
(** Record one sample for [(pid, series)]. *)

val get : t -> pid:int -> series:string -> Sketch.t option

val series : t -> string list
(** All series names, sorted. *)

val pids : t -> int list
(** All pids observed, sorted. *)

val merged : t -> series:string -> Sketch.t
(** Pointwise merge of one series across all pids (empty sketch if
    the series is unknown). *)

val of_metrics : Shm.Metrics.t -> t
(** One sample per process per counter kind, drawn from a finished
    ledger: series ["work"], ["reads"], ["writes"], ["internals"] —
    the across-process distribution of one run. *)

val observe_metrics : t -> Shm.Metrics.t -> unit
(** Fold another finished run's per-process totals into an existing
    profile (series ["work"]/["reads"]/["writes"]) — accumulating a
    distribution across a sweep of runs. *)

type summary = {
  count : int;
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  max : int;
}

val summarize : Sketch.t -> summary
val summary : t -> series:string -> summary
(** Summary of the across-pid merge of a series. *)
