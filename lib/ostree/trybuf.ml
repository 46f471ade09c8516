type t = { a : int array; mutable len : int }

let create cap = { a = Array.make (max cap 0) 0; len = 0 }
let clear b = b.len <- 0
let cardinal b = b.len

let get b k =
  if k < 0 || k >= b.len then invalid_arg "Trybuf.get: index out of range";
  Array.unsafe_get b.a k

(* First index whose element is >= x (b.len when none). *)
let rec lower_bound b x i = if i < b.len && b.a.(i) < x then lower_bound b x (i + 1) else i

let mem x b =
  let i = lower_bound b x 0 in
  i < b.len && b.a.(i) = x

let add x b =
  let i = lower_bound b x 0 in
  if not (i < b.len && b.a.(i) = x) then begin
    if b.len = Array.length b.a then invalid_arg "Trybuf.add: buffer full";
    Array.blit b.a i b.a (i + 1) (b.len - i);
    b.a.(i) <- x;
    b.len <- b.len + 1
  end

let fold f b init =
  let acc = ref init in
  for i = 0 to b.len - 1 do
    acc := f b.a.(i) !acc
  done;
  !acc

let iter f b =
  for i = 0 to b.len - 1 do
    f b.a.(i)
  done

let elements b = List.init b.len (fun i -> b.a.(i))

let of_list xs =
  let b = create (List.length xs) in
  List.iter (fun x -> add x b) xs;
  b
