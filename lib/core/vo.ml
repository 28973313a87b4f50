module Service = Dacs_ws.Service
module Rsa = Dacs_crypto.Rsa
module Value = Dacs_policy.Value

type t = {
  name : string;
  services : Service.t;
  domains : Domain.t list;
  vo_pap : Pap.t;
  cas : Capability_service.t;
  mutable l2_root : Cache_hierarchy.L2.t option;
}

let name t = t.name
let services t = t.services
let domains t = t.domains
let find_domain t name = List.find_opt (fun d -> Domain.name d = name) t.domains
let vo_pap t = t.vo_pap
let capability_service t = t.cas

let form services ~name domains =
  let net = Service.net services in
  let node suffix =
    let id = name ^ "." ^ suffix in
    Dacs_net.Net.add_node net id;
    id
  in
  let vo_pap = Pap.create services ~node:(node "pap") ~name:(name ^ "-pap") () in
  let cas_keys = Rsa.generate (Dacs_crypto.Rng.create 424242L) ~bits:512 in
  let cas =
    Capability_service.create services ~node:(node "cas") ~issuer:("cas." ^ name)
      ~keypair:cas_keys ()
  in
  List.iter
    (fun domain ->
      Pap.subscribe_local vo_pap ~child:(Domain.pap_node domain);
      Domain.allow_policy_updates_from domain [ Pap.node vo_pap ])
    domains;
  let t = { name; services; domains; vo_pap; cas; l2_root = None } in
  (* Syndicate every accepted update's change-impact region down the
     Fig. 5 cache hierarchy: the root L2 purges only matching entries and
     fans the region to every domain L2 (and from there to PEP L1s); each
     domain PAP purges its own caches again when the pushed policy lands.
     A domain L2 that misses the region push repairs itself by the
     anti-entropy epoch poll, with a conservative full purge one round
     later. *)
  Pap.on_update vo_pap (fun region ->
      Option.iter (fun root -> Cache_hierarchy.L2.invalidate_region root region) t.l2_root);
  t

let publish_policy t child =
  Capability_service.set_policy t.cas child;
  Pap.publish t.vo_pap child

let issuer_key t issuer =
  if issuer = Capability_service.issuer t.cas then Some (Capability_service.public_key t.cas)
  else
    List.find_map
      (fun d ->
        let idp = Domain.idp d in
        if Idp.issuer idp = issuer then Some (Idp.public_key idp) else None)
      t.domains

let merged_audit t = Audit.merge (List.map Domain.audit t.domains)

(* The caching mirror of policy syndication (Fig. 5): a VO-root cache
   node with every domain's shared L2 subscribed under it.  Purges push
   root -> domain -> PEP L1 along the same edges policy updates flow, and
   each domain polls the root's epoch as the anti-entropy backstop, so a
   revocation purges every member within one round even if a push was
   lost. *)
let cache_hierarchy t ~ttl () =
  match t.l2_root with
  | Some root -> root
  | None ->
    let net = Service.net t.services in
    let node = t.name ^ ".l2" in
    Dacs_net.Net.add_node net node;
    let root = Cache_hierarchy.L2.create t.services ~node ~ttl () in
    List.iter
      (fun domain ->
        let l2 = Domain.attach_l2 domain ~ttl () in
        Cache_hierarchy.L2.subscribe root ~child:l2;
        Cache_hierarchy.L2.enable_anti_entropy l2 ~parent:node ~period:5.0)
      t.domains;
    t.l2_root <- Some root;
    root

let revoke_capability t ~assertion_id =
  Capability_service.revoke t.cas ~assertion_id;
  (* Decisions influenced by the revoked grant may sit in any cache
     level, and no region bounds them: one unbounded purge from the root
     empties them all. *)
  Option.iter (fun root -> Cache_hierarchy.L2.invalidate_region root Dacs_policy.Delta.unbounded) t.l2_root

let client_for t ~domain ~user subject =
  let net = Service.net t.services in
  let node = Printf.sprintf "%s.client.%s" (Domain.name domain) user in
  Dacs_net.Net.add_node net node;
  Domain.register_user domain ~user subject;
  Client.create t.services ~node ~subject
