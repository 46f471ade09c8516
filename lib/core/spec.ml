type violation = { job : int; first_pid : int; second_pid : int }

let check_at_most_once dos =
  let seen = Hashtbl.create 1024 in
  let rec go = function
    | [] -> Ok ()
    | (p, job) :: rest -> begin
        match Hashtbl.find_opt seen job with
        | Some first_pid -> Error { job; first_pid; second_pid = p }
        | None ->
            Hashtbl.add seen job p;
            go rest
      end
  in
  go dos

let pp_violation fmt { job; first_pid; second_pid } =
  Format.fprintf fmt "job %d performed twice: by p%d and then by p%d" job
    first_pid second_pid

let assert_at_most_once dos =
  match check_at_most_once dos with
  | Ok () -> ()
  | Error v -> failwith (Format.asprintf "at-most-once violated: %a" pp_violation v)

let performed_set dos =
  let cap = List.fold_left (fun c (_, job) -> max c job) 0 dos in
  Ostree.build cap (fun add -> List.iter (fun (_, job) -> add job) dos)

let do_count dos = Ostree.cardinal (performed_set dos)

let per_process_counts ~m dos =
  let a = Array.make (m + 1) 0 in
  List.iter
    (fun (p, _) ->
      if p >= 1 && p <= m then a.(p) <- a.(p) + 1
      else invalid_arg "Spec.per_process_counts: pid out of range")
    dos;
  a

let undone_jobs ~n dos =
  let performed = performed_set dos in
  let rec go j acc =
    if j < 1 then acc else go (j - 1) (if Ostree.mem j performed then acc else j :: acc)
  in
  go n []
