(* Host speed, measured by a fixed reference kernel.

   On a shared virtual machine the processor's speed drifts by up to
   1.5x over tens of seconds, and the drift moves every timing a run
   reports.  Before each timed call the benchmark runs a small kernel
   built only from the OCaml standard library — sorting a list,
   filling and probing a hash table, so it allocates and chases
   pointers like the workloads do — and scales the call's wall time by
   [nominal /. kernel time].  A library change cannot move the kernel,
   so the scaled times move with the program and not with the host.
   See WORKLOADS.md for the measurements behind this. *)

(* The kernel's median time, in seconds, on one and on two domains at
   once, on the host the benchmark was defined on (a 2-vCPU Intel Xeon
   virtual machine at 2.1 GHz): scaled seconds equal wall seconds on
   that host at its usual speed. *)
let nominal ~domains = if domains = 1 then 0.0095 else 0.0122

let kernel () =
  let x = ref 12345 in
  let l =
    List.init 20_000 (fun _ ->
        x := ((!x * 1103515245) + 12345) land 0x3fffffff;
        !x)
  in
  let l = List.sort compare l in
  let h = Hashtbl.create 16 in
  List.iteri (fun i v -> if i land 3 = 0 then Hashtbl.replace h (v land 8191) i) l;
  let s = ref 0 in
  for i = 0 to 50_000 do
    match Hashtbl.find_opt h (i land 8191) with Some v -> s := !s + v | None -> ()
  done;
  ignore (Sys.opaque_identity (!s, l))

(* Wall seconds of the kernel run on [domains] domains at once, the
   way a workload on that many domains loads the host. *)
let once ~domains =
  let t0 = Meter.now () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn kernel) in
  kernel ();
  List.iter Domain.join others;
  Meter.since t0

(* The factor that scales a wall time measured now: the median of
   three kernel runs against [nominal]. *)
let factor ~domains =
  let a = Array.init 3 (fun _ -> once ~domains) in
  Array.sort compare a;
  nominal ~domains /. a.(1)
