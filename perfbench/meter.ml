(* Clock, per-domain call meters and in-memory spans for the traced run.

   A meter counts calls and the nanoseconds they took.  Each domain
   gets its own cell (the explorer calls metered code from two
   domains), and the cells are summed once the run is over.  Spans are
   coarse — one per instance phase — and are kept in memory until
   [write_spans] dumps them after the run. *)

let now () = Int64.to_int (Monotonic_clock.now ())

let since t0 = float_of_int (now () - t0) *. 1e-9

(* Cost of one clock read, in ns.  A metered interval [t1 - t0] counts
   about one read's latency on top of the work, and every metered call
   nested inside an outer interval adds two; [net] and the self-time
   formulas in [Workloads] subtract these. *)
let read_cost = ref 0.

let calibrate () =
  let batch = 20_000 in
  let sample () =
    let t0 = now () in
    for _ = 1 to batch do
      ignore (Sys.opaque_identity (now ()))
    done;
    float_of_int (now () - t0) /. float_of_int batch
  in
  let xs = Array.init 15 (fun _ -> sample ()) in
  Array.sort compare xs;
  read_cost := xs.(7)

type cell = { mutable calls : int; mutable ns : int }

type t = { lock : Mutex.t; cells : cell list ref; key : cell Domain.DLS.key }

let all = ref []

let create () =
  let lock = Mutex.create () and cells = ref [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let c = { calls = 0; ns = 0 } in
        Mutex.protect lock (fun () -> cells := c :: !cells);
        c)
  in
  let m = { lock; cells; key } in
  all := m :: !all;
  m

let[@inline] cell m = Domain.DLS.get m.key

let[@inline] stop c t0 =
  c.ns <- c.ns + (now () - t0);
  c.calls <- c.calls + 1

let time m f =
  let c = cell m in
  let t0 = now () in
  let r = f () in
  stop c t0;
  r

let fold m f =
  Mutex.protect m.lock (fun () -> List.fold_left f 0 !(m.cells))

let calls m = fold m (fun acc c -> acc + c.calls)
let raw_ns m = fold m (fun acc c -> acc + c.ns)

(* Time spent in the metered calls themselves, clock reads removed. *)
let net_ns m =
  float_of_int (raw_ns m) -. (float_of_int (calls m) *. !read_cost)

(* Zero every meter, so the next workload's calls are counted alone. *)
let reset_all () =
  List.iter
    (fun m ->
      Mutex.protect m.lock (fun () ->
          List.iter
            (fun c ->
              c.calls <- 0;
              c.ns <- 0)
            !(m.cells)))
    !all

(* Mean net ns per call; 0 when the meter never fired. *)
let mean_ns m =
  let k = calls m in
  if k = 0 then 0. else Float.max 0. (net_ns m /. float_of_int k)

(* Spans: name, start, end and the span that caused them. *)
type span = { id : int; parent : int; name : string; t0 : int; t1 : int }

let spans = ref []
let next_id = ref 0
let current = ref 0

(* [span name f] runs [f] as a child of the innermost open span. *)
let span name f =
  incr next_id;
  let id = !next_id and parent = !current in
  current := id;
  let t0 = now () in
  let r = Fun.protect ~finally:(fun () -> current := parent) f in
  spans := { id; parent; name; t0; t1 = now () } :: !spans;
  r

let write_spans path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d}\n"
        s.id s.parent s.name s.t0 s.t1)
    (List.sort (fun a b -> compare a.id b.id) !spans);
  close_out oc
