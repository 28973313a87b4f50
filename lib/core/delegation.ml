type grant = {
  id : string;
  delegator : string;
  delegate : string;
  scope : string;
  can_redelegate : bool;
  expires : float;
}

type t = {
  root_authorities : string list;
  mutable grant_list : grant list;  (* newest first *)
  mutable next_id : int;
}

let create ~roots = { root_authorities = roots; grant_list = []; next_id = 0 }

let scope_covers scope resource =
  let n = String.length scope in
  n = 0 || (String.length resource >= n && String.sub resource 0 n = scope)

(* BFS from the roots: which authorities hold (re-delegable) authority
   over [resource] at [now]? *)
let chain_for t ~issuer ~resource ~now =
  if List.mem issuer t.root_authorities then Some []
  else begin
    (* frontier entries: (authority, chain from root, must the next link
       come from an authority whose grant allowed re-delegation) *)
    let live g = now < g.expires && scope_covers g.scope resource in
    let rec bfs visited frontier =
      match frontier with
      | [] -> None
      | (authority, chain) :: rest ->
        let outgoing =
          List.filter (fun g -> g.delegator = authority && live g) t.grant_list
        in
        let hit =
          List.find_opt (fun g -> g.delegate = issuer) outgoing
        in
        (match hit with
        | Some g -> Some (List.rev (g :: chain))
        | None ->
          let next =
            List.filter_map
              (fun g ->
                if g.can_redelegate && not (List.mem g.delegate visited) then
                  Some (g.delegate, g :: chain)
                else None)
              outgoing
          in
          bfs (List.map fst next @ visited) (rest @ next))
    in
    bfs t.root_authorities (List.map (fun r -> (r, [])) t.root_authorities)
  end

let authority_for t ~issuer ~resource ~now = chain_for t ~issuer ~resource ~now <> None

(* Can [delegator] hand out authority over [scope] at [now]?  Roots always
   can; others must hold a re-delegable chain covering the scope (we check
   with the scope itself as the resource, which is the most permissive
   resource the grant could cover). *)
let may_delegate t ~delegator ~scope ~now =
  List.mem delegator t.root_authorities
  ||
  match chain_for t ~issuer:delegator ~resource:scope ~now with
  | None -> false
  | Some chain -> List.for_all (fun g -> g.can_redelegate) chain

let grant t ?(can_redelegate = false) ~delegator ~delegate ~scope ~now ~expires () =
  if not (may_delegate t ~delegator ~scope ~now) then
    Error (Printf.sprintf "%s holds no delegable authority over scope %S" delegator scope)
  else begin
    let g =
      {
        id = Printf.sprintf "grant-%d" t.next_id;
        delegator;
        delegate;
        scope;
        can_redelegate;
        expires;
      }
    in
    t.next_id <- t.next_id + 1;
    t.grant_list <- g :: t.grant_list;
    Ok g
  end

let revoke t ~grant_id =
  let existed = List.exists (fun g -> g.id = grant_id) t.grant_list in
  t.grant_list <- List.filter (fun g -> g.id <> grant_id) t.grant_list;
  existed
