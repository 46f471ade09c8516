type t = {
  name : string;
  decide : step:int -> handles:Automaton.handle array -> int list;
}

let name t = t.name

(* All built-in adversaries report their stop decisions at debug
   level; nothing is ever written unconditionally. *)
let log_victims name ~step = function
  | [] -> []
  | victims ->
      Util.Logging.debug "adversary %s: stop {%s} at step %d" name
        (String.concat ", " (List.map string_of_int victims))
        step;
      victims

let decide t ~step ~handles = log_victims t.name ~step (t.decide ~step ~handles)

let none = { name = "none"; decide = (fun ~step:_ ~handles:_ -> []) }

let custom ~name decide = { name; decide }

let at_start pids =
  let fired = ref false in
  {
    name = "at-start";
    decide =
      (fun ~step:_ ~handles:_ ->
        if !fired then []
        else begin
          fired := true;
          pids
        end);
  }

(* [pending] stays sorted by step, so the entries due at [step] are a
   prefix of it and a decision with nothing due reads only the head. *)
let at_steps plan =
  let pending = ref (List.sort compare plan) in
  let rec take_due step = function
    | (s, p) :: rest when s <= step -> p :: take_due step rest
    | later ->
        pending := later;
        []
  in
  {
    name = "at-steps";
    decide =
      (fun ~step ~handles:_ ->
        match !pending with
        | (s, _) :: _ when s <= step -> take_due step !pending
        | _ -> []);
  }

let random rng ~f ~m ~horizon =
  if f < 0 || f >= m then invalid_arg "Adversary.random: need 0 <= f < m";
  if horizon < 1 then invalid_arg "Adversary.random: horizon must be >= 1";
  let victims = Util.Prng.sample_without_replacement rng f m in
  let plan =
    Array.to_list victims
    |> List.map (fun v -> (Util.Prng.int rng horizon, v + 1))
  in
  let inner = at_steps plan in
  { inner with name = Printf.sprintf "random(f=%d)" f }

let after_announce ~victims ~announce_phase =
  let pending = ref victims in
  {
    name = "after-announce";
    decide =
      (fun ~step:_ ~handles ->
        let ready, later =
          List.partition
            (fun p ->
              let h = handles.(p - 1) in
              h.Automaton.alive () && h.Automaton.phase () = announce_phase)
            !pending
        in
        pending := later;
        ready);
  }
