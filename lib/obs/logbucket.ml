(* Power-of-two bucketing for Sketch's bands and Heatmap's step
   buckets.

   Index 0 holds the value 0 (and any clamped negatives); bucket
   b >= 1 holds values in [2^(b-1), 2^b - 1].  With 63-bit OCaml ints
   the top bucket is 62: [2^61, max_int]. *)

let top_bucket = 62

let of_value v =
  if v <= 0 then 0
  else begin
    let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
    bits 0 v
  end

let lo b = if b <= 0 then 0 else 1 lsl (b - 1)
let hi b = if b <= 0 then 0 else if b >= top_bucket then max_int else (1 lsl b) - 1

let width b = if b <= 0 then 1 else hi b - lo b + 1

(* ---- k-way linear sub-bucket slotting ----

   Each power-of-two band is subdivided into [k] equal-width linear
   sub-buckets and the whole structure flattened into
   [1 + top_bucket * k] slots: slot 0 is the value 0, band b >= 1
   occupies slots [1 + (b-1)k .. bk].  At k = 1 the slot index is the
   band index. *)

let sub_width ~k b = max 1 (width b / k)
let n_slots ~k = 1 + (top_bucket * k)

let slot_of ~k v =
  let b = of_value v in
  if b = 0 then 0
  else begin
    let s = min ((v - lo b) / sub_width ~k b) (k - 1) in
    1 + ((b - 1) * k) + s
  end

let slot_hi ~k i =
  if i = 0 then 0
  else begin
    let b = 1 + ((i - 1) / k) in
    let s = (i - 1) mod k in
    let edge = lo b + ((s + 1) * sub_width ~k b) - 1 in
    min edge (hi b)
  end
