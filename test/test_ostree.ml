(* Tests for the order-statistic set and the TRY buffer, including
   qcheck properties against a sorted-list reference model. *)

module T = Ostree

let of_list = T.of_list

let test_empty () =
  let t = T.create 10 in
  Alcotest.(check bool) "is_empty" true (T.is_empty t);
  Alcotest.(check int) "cardinal" 0 (T.cardinal t);
  Alcotest.(check bool) "mem" false (T.mem 1 t);
  Alcotest.(check (list int)) "elements" [] (T.elements t);
  T.check_invariants t

let test_add_mem () =
  let t = of_list [ 5; 1; 9; 3 ] in
  List.iter
    (fun x -> Alcotest.(check bool) "mem added" true (T.mem x t))
    [ 5; 1; 9; 3 ];
  Alcotest.(check bool) "absent" false (T.mem 2 t);
  Alcotest.(check bool) "outside the universe" false (T.mem 10 t);
  Alcotest.(check bool) "negative" false (T.mem (-1) t);
  Alcotest.(check int) "cardinal" 4 (T.cardinal t);
  Alcotest.check_raises "add outside the universe"
    (Invalid_argument "Ostree.add: element out of range") (fun () -> T.add 10 t)

let test_add_idempotent () =
  let t = of_list [ 1; 2; 3 ] in
  T.add 2 t;
  Alcotest.(check int) "cardinal unchanged" 3 (T.cardinal t);
  Alcotest.(check (list int)) "elements unchanged" [ 1; 2; 3 ] (T.elements t);
  T.check_invariants t

let test_remove () =
  let t = of_list [ 1; 2; 3; 4; 5 ] in
  T.remove 3 t;
  Alcotest.(check (list int)) "removed" [ 1; 2; 4; 5 ] (T.elements t);
  T.remove 3 t;
  T.remove 42 t;
  T.remove (-1) t;
  Alcotest.(check (list int)) "absent removes are no-ops" [ 1; 2; 4; 5 ]
    (T.elements t);
  T.check_invariants t

let test_elements_sorted () =
  let t = of_list [ 9; 7; 5; 3; 1; 2; 4; 6; 8 ] in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (T.elements t)

let test_min_max () =
  let t = of_list [ 4; 2; 8; 6 ] in
  Alcotest.(check int) "min" 2 (T.min_elt t);
  Alcotest.(check int) "max" 8 (T.max_elt t);
  Alcotest.check_raises "min of empty" Not_found (fun () ->
      ignore (T.min_elt (T.create 5)))

let test_select_rank_roundtrip () =
  let t = of_list [ 10; 20; 30; 40; 50 ] in
  for i = 1 to 5 do
    let x = T.select t i in
    Alcotest.(check int) "select" (i * 10) x;
    Alcotest.(check int) "rank inverse" i (T.rank x t)
  done

let test_select_out_of_range () =
  let t = of_list [ 1; 2 ] in
  Alcotest.check_raises "rank 0" (Invalid_argument "Ostree.select: rank out of range")
    (fun () -> ignore (T.select t 0));
  Alcotest.check_raises "rank 3" (Invalid_argument "Ostree.select: rank out of range")
    (fun () -> ignore (T.select t 3))

let test_rank_absent () =
  let t = of_list [ 1; 3 ] in
  Alcotest.check_raises "rank of absent" Not_found (fun () ->
      ignore (T.rank 2 t))

let test_count_le () =
  let t = of_list [ 2; 4; 6; 8 ] in
  Alcotest.(check int) "below all" 0 (T.count_le 1 t);
  Alcotest.(check int) "negative" 0 (T.count_le (-5) t);
  Alcotest.(check int) "at element" 2 (T.count_le 4 t);
  Alcotest.(check int) "between" 2 (T.count_le 5 t);
  Alcotest.(check int) "above all" 4 (T.count_le 100 t)

let test_of_range () =
  let t = T.of_range 3 7 in
  Alcotest.(check (list int)) "range" [ 3; 4; 5; 6; 7 ] (T.elements t);
  T.check_invariants t;
  Alcotest.(check bool) "empty range" true (T.is_empty (T.of_range 5 4));
  let big = T.of_range 1 10_000 in
  Alcotest.(check int) "big range cardinal" 10_000 (T.cardinal big);
  T.check_invariants big;
  (* ranges starting and ending on every side of a word edge *)
  List.iter
    (fun (lo, hi) ->
      let t = T.of_range lo hi in
      T.check_invariants t;
      Alcotest.(check (list int))
        (Printf.sprintf "of_range %d %d" lo hi)
        (List.init (hi - lo + 1) (( + ) lo))
        (T.elements t))
    [ (0, 0); (0, 61); (61, 62); (62, 123); (61, 124); (1, 186); (124, 124) ]

let test_subset_equal () =
  let a = of_list [ 1; 2; 3 ] and b = of_list [ 1; 2; 3; 4 ] in
  Alcotest.(check bool) "subset" true (T.subset a b);
  Alcotest.(check bool) "not subset" false (T.subset b a);
  Alcotest.(check bool) "equal" true (T.equal a (of_list [ 3; 2; 1 ]));
  Alcotest.(check bool) "equal over other universes" true
    (T.equal a (T.build 500 (fun add -> List.iter add [ 1; 2; 3 ])));
  Alcotest.(check bool) "not equal" false (T.equal a b)

let test_fold_iter () =
  let t = of_list [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "fold sum" 10 (T.fold ( + ) t 0);
  let acc = ref [] in
  T.iter (fun x -> acc := x :: !acc) t;
  Alcotest.(check (list int)) "iter order" [ 4; 3; 2; 1 ] !acc

let test_diff_cardinal () =
  let s1 = of_list [ 1; 2; 3; 4; 5 ] in
  let s2 = Trybuf.of_list [ 2; 4 ] in
  Alcotest.(check int) "diff" 3 (T.diff_cardinal s1 s2);
  (* s2 not a subset: elements outside s1 must not be counted *)
  let s3 = Trybuf.of_list [ 2; 100 ] in
  Alcotest.(check int) "diff with stranger" 4 (T.diff_cardinal s1 s3);
  Alcotest.(check int) "diff empty" 5 (T.diff_cardinal s1 (Trybuf.create 3))

let test_rank_diff_basic () =
  let s1 = of_list [ 1; 2; 3; 4; 5; 6 ] in
  let s2 = Trybuf.of_list [ 2; 5 ] in
  (* s1 \ s2 = {1, 3, 4, 6} *)
  Alcotest.(check int) "1st" 1 (T.rank_diff s1 s2 1);
  Alcotest.(check int) "2nd" 3 (T.rank_diff s1 s2 2);
  Alcotest.(check int) "3rd" 4 (T.rank_diff s1 s2 3);
  Alcotest.(check int) "4th" 6 (T.rank_diff s1 s2 4);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Ostree.rank_diff: rank out of range") (fun () ->
      ignore (T.rank_diff s1 s2 5))

let test_rank_diff_prefix_excluded () =
  (* the correction set sits entirely below the answer *)
  let s1 = T.of_range 1 100 in
  let s2 = Trybuf.of_list [ 1; 2; 3 ] in
  Alcotest.(check int) "shifted head" 4 (T.rank_diff s1 s2 1);
  Alcotest.(check int) "tail" 100 (T.rank_diff s1 s2 97)

let test_pp () =
  let t = of_list [ 3; 1; 2 ] in
  Alcotest.(check string) "pp" "{1, 2, 3}" (Format.asprintf "%a" T.pp t);
  Alcotest.(check string) "pp empty" "{}" (Format.asprintf "%a" T.pp (T.create 0))

let test_sequential_deletions () =
  (* ascending, descending and middle-out drains of 1..64 *)
  let check_drain order =
    let t = T.of_range 1 64 in
    List.iter
      (fun x ->
        T.remove x t;
        T.check_invariants t)
      order;
    Alcotest.(check bool) "drained" true (T.is_empty t)
  in
  check_drain (List.init 64 (fun i -> i + 1));
  check_drain (List.init 64 (fun i -> 64 - i));
  check_drain
    (List.init 64 (fun i -> if i mod 2 = 0 then 32 - (i / 2) else 33 + (i / 2)))

let test_copy_independent () =
  let a = T.of_range 1 100 in
  let b = T.copy a in
  T.remove 50 a;
  T.add 0 b;
  Alcotest.(check bool) "copy keeps 50" true (T.mem 50 b);
  Alcotest.(check bool) "original lacks 0" false (T.mem 0 a);
  Alcotest.(check int) "original cardinal" 99 (T.cardinal a);
  Alcotest.(check int) "copy cardinal" 101 (T.cardinal b);
  T.check_invariants a;
  T.check_invariants b

let test_trybuf () =
  let b = Trybuf.create 4 in
  List.iter (fun x -> Trybuf.add x b) [ 7; 3; 7; 9; 3; 1 ];
  Alcotest.(check (list int)) "sorted, distinct" [ 1; 3; 7; 9 ] (Trybuf.elements b);
  Alcotest.(check int) "cardinal" 4 (Trybuf.cardinal b);
  Alcotest.(check bool) "mem" true (Trybuf.mem 7 b);
  Alcotest.(check bool) "not mem" false (Trybuf.mem 4 b);
  Alcotest.(check int) "get" 3 (Trybuf.get b 1);
  Alcotest.(check int) "ascending fold" 1379
    (Trybuf.fold (fun x acc -> (acc * 10) + x) b 0);
  Trybuf.add 9 b;
  Alcotest.check_raises "full" (Invalid_argument "Trybuf.add: buffer full")
    (fun () -> Trybuf.add 5 b);
  Trybuf.clear b;
  Alcotest.(check (list int)) "cleared" [] (Trybuf.elements b)

(* ---- qcheck properties against a reference model ---- *)

let list_model ops =
  (* apply (add x | remove x) ops to both structures, compare *)
  let t = T.create 64 in
  let l =
    List.fold_left
      (fun l (is_add, x) ->
        if is_add then begin
          T.add x t;
          if List.mem x l then l else List.sort compare (x :: l)
        end
        else begin
          T.remove x t;
          List.filter (fun y -> y <> x) l
        end)
      [] ops
  in
  (t, l)

let ops_gen =
  QCheck.(list (pair bool (int_range 1 64)))

let prop_model_agreement =
  QCheck.Test.make ~name:"ostree agrees with list model" ~count:500 ops_gen
    (fun ops ->
      let t, l = list_model ops in
      T.check_invariants t;
      T.elements t = l)

(* The properties below build their sets by add/remove sequences rather
   than [of_list], so Fenwick updates after removals are exercised
   before every query. *)

let prop_invariants_every_op =
  QCheck.Test.make ~name:"invariants hold after every op" ~count:500
    QCheck.(list (pair bool (int_range 1 200)))
    (fun ops ->
      let t = T.create 200 in
      List.iter
        (fun (is_add, x) ->
          if is_add then T.add x t else T.remove x t;
          T.check_invariants t)
        ops;
      true)

let prop_op_built_queries =
  QCheck.Test.make ~name:"op-built sets: select/rank/count_le" ~count:500
    ops_gen (fun ops ->
      let t, l = list_model ops in
      let min_max_ok =
        match (l, List.rev l) with
        | lo :: _, hi :: _ -> T.min_elt t = lo && T.max_elt t = hi
        | _ -> T.is_empty t
      in
      T.cardinal t = List.length l
      && min_max_ok
      && List.for_all2
           (fun i x -> T.select t i = x && T.rank x t = i)
           (List.init (List.length l) (fun i -> i + 1))
           l
      && List.for_all
           (fun b ->
             T.count_le b t = List.length (List.filter (fun x -> x <= b) l))
           (List.init 66 Fun.id))

let prop_op_built_rank_diff =
  QCheck.Test.make ~name:"op-built sets: rank_diff vs model" ~count:500
    (QCheck.pair ops_gen ops_gen)
    (fun (ops1, ops2) ->
      let t, l = list_model ops1 and _, l2 = list_model ops2 in
      let t2 = Trybuf.of_list l2 in
      let diff = List.filter (fun x -> not (List.mem x l2)) l in
      T.diff_cardinal t t2 = List.length diff
      && List.for_all2
           (fun i x -> T.rank_diff t t2 i = x)
           (List.init (List.length diff) (fun i -> i + 1))
           diff)

let prop_select_rank =
  QCheck.Test.make ~name:"select/rank consistent with sorted order" ~count:300
    QCheck.(list_of_size Gen.(1 -- 80) (int_range 1 1000))
    (fun xs ->
      let t = of_list xs in
      let l = List.sort_uniq compare xs in
      List.for_all2
        (fun i x -> T.select t i = x && T.rank x t = i)
        (List.init (List.length l) (fun i -> i + 1))
        l)

let prop_rank_diff_naive =
  QCheck.Test.make ~name:"rank_diff agrees with naive set difference"
    ~count:500
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 60) (int_range 1 100))
        (list_of_size Gen.(0 -- 10) (int_range 1 100)))
    (fun (xs, ys) ->
      let s1 = of_list xs and s2 = Trybuf.of_list ys in
      let diff =
        List.filter (fun x -> not (Trybuf.mem x s2)) (T.elements s1)
      in
      T.diff_cardinal s1 s2 = List.length diff
      && List.for_all2
           (fun i x -> T.rank_diff s1 s2 i = x)
           (List.init (List.length diff) (fun i -> i + 1))
           diff)

let prop_count_le =
  QCheck.Test.make ~name:"count_le agrees with naive count" ~count:300
    QCheck.(pair (list (int_range 1 50)) (int_range 0 60))
    (fun (xs, bound) ->
      let t = of_list xs in
      T.count_le bound t
      = List.length (List.filter (fun x -> x <= bound) (T.elements t)))

(* Differential test at the word edges: universes of one word, of 62k
   ± 1 elements and a few more, and elements drawn mostly from word
   boundaries, so bit 0, bit 61 and the first and last words are hit
   often.  After every add/remove the whole query surface is compared
   with a sorted list, including the set-difference queries against
   TRY buffers fed duplicates and jobs absent from the set. *)
let caps = [ 1; 61; 62; 63; 123; 124; 125; 185; 186; 187; 247; 248; 249; 300 ]

let edge_gen cap =
  let edges =
    List.filter (fun x -> x >= 0 && x <= cap) [ 0; 61; 62; 63; 123; 124; cap - 1; cap ]
  in
  QCheck.Gen.(
    frequency [ (3, oneofl edges); (1, int_range 0 cap) ])

let edge_case_gen =
  QCheck.Gen.(
    oneofl caps >>= fun cap ->
    let x = edge_gen cap in
    pair (return cap)
      (pair
         (list_size (0 -- 60) (pair bool x))
         (list_size (0 -- 12) (frequency [ (3, x); (1, int_range (cap + 1) (cap + 70)) ]))))

let print_edge_case (cap, (ops, tries)) =
  Printf.sprintf "cap %d, ops [%s], try [%s]" cap
    (String.concat "; "
       (List.map (fun (a, x) -> Printf.sprintf "%s%d" (if a then "+" else "-") x) ops))
    (String.concat "; " (List.map string_of_int tries))

let queries_agree ~cap t l tries =
  let fail fmt = QCheck.Test.fail_reportf fmt in
  T.check_invariants t;
  if T.cardinal t <> List.length l then fail "cardinal %d <> %d" (T.cardinal t) (List.length l);
  if T.fold (fun x acc -> x :: acc) t [] <> List.rev l then fail "fold order";
  for x = -1 to cap + 1 do
    if T.mem x t <> List.mem x l then fail "mem %d" x;
    let le = List.length (List.filter (fun y -> y <= x) l) in
    if T.count_le x t <> le then fail "count_le %d: %d <> %d" x (T.count_le x t) le
  done;
  List.iteri
    (fun i x ->
      if T.select t (i + 1) <> x then fail "select %d" (i + 1);
      if T.rank x t <> i + 1 then fail "rank %d" x)
    l;
  let b = Trybuf.create (List.length tries) in
  List.iter (fun x -> Trybuf.add x b) tries;
  let diff = List.filter (fun x -> not (List.mem x tries)) l in
  if T.diff_cardinal t b <> List.length diff then fail "diff_cardinal";
  List.iteri
    (fun i x -> if T.rank_diff t b (i + 1) <> x then fail "rank_diff %d" (i + 1))
    diff

let prop_word_edges =
  QCheck.Test.make ~name:"word edges: every query vs sorted list" ~count:400
    (QCheck.make ~print:print_edge_case edge_case_gen)
    (fun (cap, (ops, tries)) ->
      let t = T.create cap in
      ignore
        (List.fold_left
           (fun l (is_add, x) ->
             let l =
               if is_add then begin
                 T.add x t;
                 List.sort_uniq compare (x :: l)
               end
               else begin
                 T.remove x t;
                 List.filter (( <> ) x) l
               end
             in
             queries_agree ~cap t l tries;
             l)
           [] ops);
      true)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "add/mem" `Quick test_add_mem;
    Alcotest.test_case "add idempotent" `Quick test_add_idempotent;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "elements sorted" `Quick test_elements_sorted;
    Alcotest.test_case "min/max" `Quick test_min_max;
    Alcotest.test_case "select/rank roundtrip" `Quick test_select_rank_roundtrip;
    Alcotest.test_case "select out of range" `Quick test_select_out_of_range;
    Alcotest.test_case "rank of absent" `Quick test_rank_absent;
    Alcotest.test_case "count_le" `Quick test_count_le;
    Alcotest.test_case "of_range" `Quick test_of_range;
    Alcotest.test_case "subset/equal" `Quick test_subset_equal;
    Alcotest.test_case "fold/iter" `Quick test_fold_iter;
    Alcotest.test_case "diff_cardinal" `Quick test_diff_cardinal;
    Alcotest.test_case "rank_diff basic" `Quick test_rank_diff_basic;
    Alcotest.test_case "rank_diff prefix excluded" `Quick
      test_rank_diff_prefix_excluded;
    Alcotest.test_case "pp" `Quick test_pp;
    Alcotest.test_case "sequential deletions keep invariants" `Quick
      test_sequential_deletions;
    Alcotest.test_case "copy is independent" `Quick test_copy_independent;
    Alcotest.test_case "trybuf sorted, distinct, bounded" `Quick test_trybuf;
    Helpers.qtest prop_model_agreement;
    Helpers.qtest prop_select_rank;
    Helpers.qtest prop_rank_diff_naive;
    Helpers.qtest prop_count_le;
    Helpers.qtest prop_invariants_every_op;
    Helpers.qtest prop_op_built_queries;
    Helpers.qtest prop_op_built_rank_diff;
    Helpers.qtest prop_word_edges;
  ]
