type entry = {
  at : float;
  domain : string;
  subject : string;
  resource : string;
  action : string;
  decision : Dacs_policy.Decision.t;
  provenance : Provenance.t option;
}

type t = { mutable entries_rev : entry list; mutable count : int }

let create () = { entries_rev = []; count = 0 }

let record t e =
  t.entries_rev <- e :: t.entries_rev;
  t.count <- t.count + 1

let entries t = List.rev t.entries_rev

let size t = t.count

let permitted_resources t ~subject =
  List.filter_map
    (fun e ->
      if e.subject = subject && e.decision = Dacs_policy.Decision.Permit then Some e.resource
      else None)
    t.entries_rev
  |> List.sort_uniq compare


let merge logs =
  let all = List.concat_map entries logs in
  let sorted = List.stable_sort (fun a b -> compare a.at b.at) all in
  let t = create () in
  List.iter (record t) sorted;
  t
