(* Mergeable quantile sketch: Logbucket's power-of-two bands, each
   subdivided into [k] equal-width linear sub-buckets (k a power of
   two, default 32).

   A quantile estimate is the upper edge of the covering sub-bucket,
   capped at the true max.  For a sample x in band b the sub-bucket is
   at most [width b / k] wide and x >= lo b = width b (for b >= 1), so
   the estimate overshoots by at most a factor 1/k: bounded relative
   error 1/k, against a plain histogram's factor-of-2 bands.  With
   k = 1 the sub-bucket IS the band and the sketch is exactly that
   histogram — the k = 1 tests pin it against a reference computed
   from the sorted samples.

   Space is (1 + 62k) ints regardless of sample count; merge is a
   pointwise sum (exact), so per-domain sketches combine without
   re-bucketing error. *)

let default_sub_buckets = 32

type t = {
  k : int;
  counts : int array;
  mutable n : int;
  mutable sum : float;
  mutable min_v : int;
  mutable max_v : int;
}

let is_pow2 k = k > 0 && k land (k - 1) = 0

let create ?(sub_buckets = default_sub_buckets) () =
  if not (is_pow2 sub_buckets) then
    invalid_arg "Sketch.create: sub_buckets must be a positive power of two";
  {
    k = sub_buckets;
    counts = Array.make (Logbucket.n_slots ~k:sub_buckets) 0;
    n = 0;
    sum = 0.;
    min_v = max_int;
    max_v = min_int;
  }

let sub_buckets t = t.k

let slot_hi k i = Logbucket.slot_hi ~k i

let add t v =
  let v = max 0 v in
  let i = Logbucket.slot_of ~k:t.k v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum +. float_of_int v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.n
let total t = t.sum
let sum = total
let min_value t = if t.n = 0 then 0 else t.min_v
let max_value t = if t.n = 0 then 0 else t.max_v
let mean t = if t.n = 0 then 0. else t.sum /. float_of_int t.n

let merge a b =
  if a.k <> b.k then
    invalid_arg
      (Printf.sprintf
         "Sketch.merge: cannot merge sketches with differing sub_buckets (%d \
          vs %d) — their bucket grids are incompatible"
         a.k b.k);
  let t = create ~sub_buckets:a.k () in
  Array.blit a.counts 0 t.counts 0 (Array.length a.counts);
  Array.iteri (fun i c -> t.counts.(i) <- t.counts.(i) + c) b.counts;
  t.n <- a.n + b.n;
  t.sum <- a.sum +. b.sum;
  t.min_v <- min a.min_v b.min_v;
  t.max_v <- max a.max_v b.max_v;
  t

let percentile t p =
  if p < 0. || p > 100. then invalid_arg "Sketch.percentile: p in [0,100]";
  if t.n = 0 then 0
  else if p >= 100. then t.max_v
  else begin
    let rank =
      let r = int_of_float (Float.ceil (p /. 100. *. float_of_int t.n)) in
      max 1 r
    in
    let len = Array.length t.counts in
    let rec go i cum =
      if i >= len then t.max_v
      else begin
        let cum = cum + t.counts.(i) in
        if cum >= rank then min (slot_hi t.k i) t.max_v else go (i + 1) cum
      end
    in
    go 0 0
  end

let relative_error t = 1. /. float_of_int t.k

let buckets t =
  let acc = ref [] in
  for i = Array.length t.counts - 1 downto 0 do
    if t.counts.(i) > 0 then acc := (i, t.counts.(i)) :: !acc
  done;
  !acc

(* Cumulative (upper_edge, count <= edge) pairs over non-empty slots —
   the shape Prometheus histogram exposition wants. *)
let cumulative t =
  let cum = ref 0 in
  List.map
    (fun (i, c) ->
      cum := !cum + c;
      (slot_hi t.k i, !cum))
    (buckets t)

let to_json t =
  Json.Obj
    [
      ("sub_buckets", Json.Int t.k);
      ("n", Json.Int t.n);
      ("sum", Json.Float t.sum);
      ("min", Json.Int (min_value t));
      ("max", Json.Int (max_value t));
      ("p50", Json.Int (percentile t 50.));
      ("p90", Json.Int (percentile t 90.));
      ("p99", Json.Int (percentile t 99.));
      ("p999", Json.Int (percentile t 99.9));
    ]

let pp fmt t =
  Format.fprintf fmt "n=%d min=%d p50=%d p90=%d p99=%d p999=%d max=%d" t.n
    (min_value t) (percentile t 50.) (percentile t 90.) (percentile t 99.)
    (percentile t 99.9) (max_value t)
