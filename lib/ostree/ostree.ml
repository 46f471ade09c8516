(* A bitset with a Fenwick tree over its word popcounts.  Element x is
   bit (x mod 62) of words.(x / 62): 62 bits keep every word a
   non-negative OCaml int, so no shift ever reaches the sign bit.
   fen is 1-based: fen.(k) sums the popcounts of words k - lowbit k
   through k - 1 (0-based). *)

let bits = 62
let full = max_int (* the 62 low bits *)

type t = {
  cap : int; (* the universe is [0..cap] *)
  words : int array;
  fen : int array;
  top : int; (* the largest power of two <= Array.length words *)
  mutable card : int;
}

let popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

(* Index of the lowest set bit of a non-zero word. *)
let ctz w = popcount ((w land -w) - 1)

let pop8 = String.init 256 (fun b -> Char.chr (popcount b))

(* Bit index of the [r]-th lowest set bit of [w], 1 <= r <= popcount w:
   skip whole bytes by table, then clear the r - 1 lowest bits. *)
let select_in_word w r =
  let w = ref w and r = ref r and base = ref 0 in
  let c = ref (Char.code (String.unsafe_get pop8 (!w land 0xff))) in
  while !c < !r do
    r := !r - !c;
    w := !w lsr 8;
    base := !base + 8;
    c := Char.code (String.unsafe_get pop8 (!w land 0xff))
  done;
  let b = ref (!w land 0xff) in
  for _ = 2 to !r do
    b := !b land (!b - 1)
  done;
  !base + ctz !b

let create cap =
  if cap < 0 then invalid_arg "Ostree.create: negative capacity";
  let nw = (cap / bits) + 1 in
  let top = ref 1 in
  while !top * 2 <= nw do
    top := !top * 2
  done;
  { cap; words = Array.make nw 0; fen = Array.make (nw + 1) 0; top = !top; card = 0 }

(* Rebuild card and fen from the words in O(words). *)
let index s =
  let nw = Array.length s.words in
  let card = ref 0 in
  for k = 1 to nw do
    let c = popcount s.words.(k - 1) in
    card := !card + c;
    s.fen.(k) <- c
  done;
  for k = 1 to nw do
    let up = k + (k land -k) in
    if up <= nw then s.fen.(up) <- s.fen.(up) + s.fen.(k)
  done;
  s.card <- !card

let build cap f =
  let s = create cap in
  f (fun x ->
      if x < 0 || x > cap then invalid_arg "Ostree.build: element out of range";
      let w = x / bits in
      s.words.(w) <- s.words.(w) lor (1 lsl (x - (w * bits))));
  index s;
  s

let of_list xs = build (List.fold_left max 0 xs) (fun add -> List.iter add xs)

let of_range lo hi =
  let s = create (max hi 0) in
  if hi >= lo then begin
    if lo < 0 then invalid_arg "Ostree.of_range: negative element";
    for w = lo / bits to hi / bits do
      let first = max lo (w * bits) - (w * bits)
      and last = min hi ((w * bits) + bits - 1) - (w * bits) in
      s.words.(w) <- (full lsr (bits - 1 - last)) land lnot ((1 lsl first) - 1)
    done;
    index s
  end;
  s

let copy s = { s with words = Array.copy s.words; fen = Array.copy s.fen }
let cardinal s = s.card
let is_empty s = s.card = 0

let mem x s =
  x >= 0 && x <= s.cap
  &&
  let w = x / bits in
  (Array.unsafe_get s.words w lsr (x - (w * bits))) land 1 = 1

let fen_update s w d =
  let nw = Array.length s.words in
  let k = ref (w + 1) in
  while !k <= nw do
    Array.unsafe_set s.fen !k (Array.unsafe_get s.fen !k + d);
    k := !k + (!k land - !k)
  done

let add x s =
  if x < 0 || x > s.cap then invalid_arg "Ostree.add: element out of range";
  let w = x / bits in
  let bit = 1 lsl (x - (w * bits)) in
  let word = Array.unsafe_get s.words w in
  if word land bit = 0 then begin
    Array.unsafe_set s.words w (word lor bit);
    s.card <- s.card + 1;
    fen_update s w 1
  end

let remove x s =
  if x >= 0 && x <= s.cap then begin
    let w = x / bits in
    let bit = 1 lsl (x - (w * bits)) in
    let word = Array.unsafe_get s.words w in
    if word land bit <> 0 then begin
      Array.unsafe_set s.words w (word lxor bit);
      s.card <- s.card - 1;
      fen_update s w (-1)
    end
  end

(* Popcount sum of words 0 .. w - 1. *)
let prefix s w =
  let acc = ref 0 and k = ref w in
  while !k > 0 do
    acc := !acc + Array.unsafe_get s.fen !k;
    k := !k land (!k - 1)
  done;
  !acc

let count_le x s =
  if x < 0 then 0
  else if x >= s.cap then s.card
  else begin
    let w = x / bits in
    prefix s w + popcount (s.words.(w) land (full lsr (bits - 1 - (x - (w * bits)))))
  end

(* Fenwick descent: the last word index whose prefix count is below i
   holds the answer, at the remaining rank within the word. *)
let select s i =
  if i < 1 || i > s.card then invalid_arg "Ostree.select: rank out of range";
  let nw = Array.length s.words in
  let pos = ref 0 and rem = ref i and step = ref s.top in
  while !step > 0 do
    let k = !pos + !step in
    if k <= nw then begin
      let c = Array.unsafe_get s.fen k in
      if c < !rem then begin
        pos := k;
        rem := !rem - c
      end
    end;
    step := !step lsr 1
  done;
  (!pos * bits) + select_in_word s.words.(!pos) !rem

let rank x s = if mem x s then count_le x s else raise Not_found
let min_elt s = if s.card = 0 then raise Not_found else select s 1
let max_elt s = if s.card = 0 then raise Not_found else select s s.card

let diff_cardinal s b =
  let inter = ref 0 in
  for j = 0 to Trybuf.cardinal b - 1 do
    if mem (Trybuf.get b j) s then incr inter
  done;
  s.card - !inter

(* The element of rank [i] in s \ b is the element of rank [i + c] in
   s, where [c] counts the elements of b ∩ s at or below it.  [c] and
   the candidate only grow, so one ascending pass over [b], selecting
   again whenever [c] grew, reaches the fixed point.  For [i] beyond
   |s \ b| that pass asks for a rank above |s|, which is the range
   check. *)
let rank_diff s b i =
  let out_of_range () = invalid_arg "Ostree.rank_diff: rank out of range" in
  if i < 1 || i > s.card then out_of_range ();
  let k = Trybuf.cardinal b in
  let x = ref (select s i) and c = ref 0 and j = ref 0 and settled = ref false in
  while not !settled do
    let c0 = !c in
    while !j < k && Trybuf.get b !j <= !x do
      if mem (Trybuf.get b !j) s then incr c;
      incr j
    done;
    if !c = c0 then settled := true
    else if i + !c > s.card then out_of_range ()
    else x := select s (i + !c)
  done;
  !x

let fold f s init =
  let acc = ref init in
  for w = 0 to Array.length s.words - 1 do
    let word = ref s.words.(w) in
    while !word <> 0 do
      let low = !word land - !word in
      acc := f ((w * bits) + ctz low) !acc;
      word := !word lxor low
    done
  done;
  !acc

let iter f s = fold (fun x () -> f x) s ()
let elements s = List.rev (fold (fun x acc -> x :: acc) s [])
let subset s1 s2 = fold (fun x ok -> ok && mem x s2) s1 true
let equal s1 s2 = s1.card = s2.card && subset s1 s2

let check_invariants s =
  let nw = Array.length s.words in
  if nw <> (s.cap / bits) + 1 || Array.length s.fen <> nw + 1 then
    failwith "Ostree: array sizes do not match the universe";
  Array.iter (fun w -> if w < 0 then failwith "Ostree: bit 62 set in a word") s.words;
  let last = s.cap - ((nw - 1) * bits) in
  if s.words.(nw - 1) lsr (last + 1) <> 0 then
    failwith "Ostree: element above the universe";
  let pops = Array.map popcount s.words in
  if Array.fold_left ( + ) 0 pops <> s.card then
    failwith "Ostree: cardinality is not the popcount sum";
  for k = 1 to nw do
    let sum = ref 0 in
    for w = k - (k land -k) to k - 1 do
      sum := !sum + pops.(w)
    done;
    if s.fen.(k) <> !sum then failwith "Ostree: Fenwick node holds a wrong sum"
  done

let pp fmt s =
  Format.fprintf fmt "{";
  let first = ref true in
  iter
    (fun x ->
      if !first then first := false else Format.fprintf fmt ", ";
      Format.fprintf fmt "%d" x)
    s;
  Format.fprintf fmt "}"
