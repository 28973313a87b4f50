module Service = Dacs_ws.Service
module Rsa = Dacs_crypto.Rsa

type t = {
  name : string;
  services : Service.t;
  domains : Domain.t list;
  vo_pap : Pap.t;
  cas : Capability_service.t;
  mutable caching : bool;  (* [cache_hierarchy] attached *)
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
  { name; services; domains; vo_pap; cas; caching = false }

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

(* Policy flows down Fig. 5 by push, and each member purges its own
   caches when its PAP accepts (see [Domain.create]); the member PAP's
   anti-entropy pull is the backstop for a lost push, and repairs the
   policy along with the caches. *)
let cache_hierarchy t ~ttl () =
  if not t.caching then begin
    t.caching <- true;
    List.iter
      (fun domain ->
        ignore (Domain.attach_l2 domain ~ttl () : Cache_hierarchy.L2.t);
        Pap.enable_anti_entropy (Domain.pap domain) ~parent:(Pap.node t.vo_pap) ~period:5.0)
      t.domains
  end

let revoke_capability t ~assertion_id =
  Capability_service.revoke t.cas ~assertion_id;
  (* Decisions influenced by the revoked grant may sit in any member's
     caches, and no region bounds them: purge them all. *)
  List.iter (fun domain -> Domain.purge domain Dacs_policy.Delta.unbounded) t.domains

let client_for t ~domain ~user subject =
  let net = Service.net t.services in
  let node = Printf.sprintf "%s.client.%s" (Domain.name domain) user in
  Dacs_net.Net.add_node net node;
  Domain.register_user domain ~user subject;
  Client.create t.services ~node ~subject
