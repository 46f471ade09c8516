type outcome = {
  dos : (int * int) list;
  completed : int list;
  stuck : int list;
  crashed_clients : int list;
  deliveries : int;
}

let of_abd (o : Abd.outcome) =
  {
    dos = o.dos;
    completed = o.completed;
    stuck = o.stuck;
    crashed_clients = o.crashed_clients;
    deliveries = o.deliveries;
  }

(* register layout: next[q] = q; done[q][c] = m + (q-1)*n + c *)
let next_reg q = q

let done_reg ~n ~m q c =
  assert (c >= 1 && c <= n);
  m + ((q - 1) * n) + c

let register_count ~n ~m = m + (m * n)

(* KKβ over ABD spends 8-12 deliveries per job, per client and per
   server (n = 500-2000, m = 2-16, 3 or 5 servers); 40 leaves room
   for collisions and crashes. *)
let default_max_deliveries ~servers ~n ~m = max 2_000_000 (40 * servers * m * n)

(* The outcome carries no work measure (deliveries are the cost unit
   here), so the body's charges go to a ledger nobody reads. *)
let kk_body ~n ~m ~beta ~pid ~read ~write ~do_job =
  Core.Kk_direct.kk ~ledger:(Shm.Metrics.create ~m) ~m ~beta
    ~policy:Core.Policy.Rank_split ~pid
    {
      Core.Kk_direct.cols = n;
      read_next = (fun q -> read (next_reg q));
      write_next = (fun v -> write (next_reg pid) v);
      read_done = (fun q c -> read (done_reg ~n ~m q c));
      write_done = (fun c v -> write (done_reg ~n ~m pid c) v);
    }
    ~do_job

(* ---- IterativeKK(eps) over message passing ----

   Register layout: one bank per super-job level l with K_l blocks:
     base_l + q                          next[q], q in 1..m (SW)
     base_l + m + (q-1)*K_l + c          done[q][c] (SW)
     base_l + m + m*K_l + 1              the termination flag (MW)   *)

type level_regs = { base : int; blocks : int }

let level_layout ~m hierarchy =
  let levels = Core.Superjob.num_levels hierarchy in
  let banks = Array.make levels { base = 0; blocks = 0 } in
  let base = ref 0 in
  for l = 0 to levels - 1 do
    let blocks = Core.Superjob.block_count hierarchy l in
    banks.(l) <- { base = !base; blocks };
    base := !base + m + (m * blocks) + 1
  done;
  (banks, !base)

let lv_next bank q = bank.base + q

let lv_done ~m bank q c =
  assert (c >= 1 && c <= bank.blocks);
  bank.base + m + ((q - 1) * bank.blocks) + c

let lv_flag ~m bank = bank.base + m + (m * bank.blocks) + 1

(* Process [pid]'s view of one level's registers and flag. *)
let level_mem ~m ~pid ~read ~write bank =
  ( {
      Core.Kk_direct.cols = bank.blocks;
      read_next = (fun q -> read (lv_next bank q));
      write_next = (fun v -> write (lv_next bank pid) v);
      read_done = (fun q c -> read (lv_done ~m bank q c));
      write_done = (fun c v -> write (lv_done ~m bank pid c) v);
    },
    {
      Core.Kk_direct.is_set = (fun () -> read (lv_flag ~m bank) = 1);
      set = (fun () -> write (lv_flag ~m bank) 1);
    } )

let cap max_deliveries ~servers ~n ~m =
  Option.value max_deliveries ~default:(default_max_deliveries ~servers ~n ~m)

let run_iterative ?crash_plan ?max_deliveries ~servers ~n ~m ~epsilon_inv ~rng
    () =
  if m < 1 || n < m then invalid_arg "Kk_mp.run_iterative: need 1 <= m <= n";
  let sizes = Core.Iterative.sizes ~n ~m ~epsilon_inv in
  let hierarchy = Core.Superjob.build ~n ~sizes in
  let banks, registers = level_layout ~m hierarchy in
  let flags =
    Array.to_list banks |> List.map (fun bank -> lv_flag ~m bank)
  in
  let bodies =
    Array.init m (fun i ~read ~write ~do_job ->
        let pid = i + 1 in
        Core.Kk_direct.iterative ~ledger:(Shm.Metrics.create ~m) ~hierarchy ~m
          ~pid
          (fun l -> level_mem ~m ~pid ~read ~write banks.(l))
          ~perform:(fun ~level id ->
            let lo, hi = Core.Superjob.interval hierarchy ~level ~id in
            for j = lo to hi do
              do_job j
            done))
  in
  of_abd
    (Abd.run ?crash_plan
       ~max_deliveries:(cap max_deliveries ~servers ~n ~m)
       ~multi_writer:(fun reg -> List.mem reg flags)
       ~servers ~registers ~rng ~client_bodies:bodies ())

let run_kk ?crash_plan ?max_deliveries ~servers ~n ~m ~beta ~rng () =
  if m < 1 || n < m then invalid_arg "Kk_mp.run_kk: need 1 <= m <= n";
  if beta < 1 then invalid_arg "Kk_mp.run_kk: beta must be >= 1";
  let bodies =
    Array.init m (fun i -> kk_body ~n ~m ~beta ~pid:(i + 1))
  in
  of_abd
    (Abd.run ?crash_plan
       ~max_deliveries:(cap max_deliveries ~servers ~n ~m)
       ~servers
       ~registers:(register_count ~n ~m)
       ~rng ~client_bodies:bodies ())
