(* Ostree with a meter on each operation KKβ spends time in.  The
   traced run instantiates [Core.Kk.Make] over this module, so the
   automaton is the library's own code and only the set calls are
   wrapped.  [cardinal] is O(1) and [empty]/[fold] are off the step
   path, so they stay unmetered. *)

include Ostree

let rank_diff_m = Meter.create ()
let remove_m = Meter.create ()
let add_m = Meter.create ()
let mem_m = Meter.create ()
let diff_cardinal_m = Meter.create ()
let all = [ rank_diff_m; remove_m; add_m; mem_m; diff_cardinal_m ]

let rank_diff a b k =
  let c = Meter.cell rank_diff_m in
  let t0 = Meter.now () in
  let r = Ostree.rank_diff a b k in
  Meter.stop c t0;
  r

let remove x s =
  let c = Meter.cell remove_m in
  let t0 = Meter.now () in
  let r = Ostree.remove x s in
  Meter.stop c t0;
  r

let add x s =
  let c = Meter.cell add_m in
  let t0 = Meter.now () in
  let r = Ostree.add x s in
  Meter.stop c t0;
  r

let mem x s =
  let c = Meter.cell mem_m in
  let t0 = Meter.now () in
  let r = Ostree.mem x s in
  Meter.stop c t0;
  r

let diff_cardinal a b =
  let c = Meter.cell diff_cardinal_m in
  let t0 = Meter.now () in
  let r = Ostree.diff_cardinal a b in
  Meter.stop c t0;
  r
