module Service = Dacs_ws.Service
module Rsa = Dacs_crypto.Rsa
module Policy = Dacs_policy.Policy
module Rule = Dacs_policy.Rule
module Expr = Dacs_policy.Expr
module Combine = Dacs_policy.Combine
module Value = Dacs_policy.Value

type t = {
  name : string;
  services : Service.t;
  audit : Audit.t;
  pap : Pap.t;
  pip : Pip.t;
  pdp : Pdp_service.t;
  idp : Idp.t;
  mutable local : Policy.child option;
  mutable vo_policy : Policy.child option;
  mutable peps : Pep.t list;
  mutable l2 : Cache_hierarchy.L2.t option;
}

let name t = t.name
let audit t = t.audit
let pap t = t.pap
let pip t = t.pip
let pdp t = t.pdp
let idp t = t.idp

let pap_node t = Pap.node t.pap
let pdp_node t = Pdp_service.node t.pdp
let pip_node t = Pip.node t.pip
let idp_node t = Idp.node t.idp

(* The stored root combines the domain's own policy with any syndicated
   VO policy under deny-overrides: the VO can grant nothing the domain
   forbids, and vice versa. *)
let combined t =
  match (t.local, t.vo_policy) with
  | None, None -> None
  | Some p, None | None, Some p -> Some p
  | Some local, Some vo ->
    Some
      (Policy.Inline_set
         (Policy.make_set
            ~id:(t.name ^ "-combined")
            ~policy_combining:Combine.Deny_overrides [ local; vo ]))

let set_local_policy t child =
  t.local <- Some child;
  Option.iter (Pap.publish t.pap) (combined t)

let allow_policy_updates_from t nodes =
  let admin =
    Policy.Inline_policy
      (Policy.make
         ~id:(t.name ^ "-pap-admin")
         ~issuer:t.name ~rule_combining:Combine.First_applicable
         [
           Rule.permit
             ~condition:(Expr.one_of (Expr.subject_attr "subject-id") nodes)
             "permit-admins";
           Rule.deny "deny-others";
         ])
  in
  Pap.set_admin_policy t.pap admin

let register_user t ~user attrs =
  Idp.register_user t.idp ~user attrs;
  List.iter
    (fun (id, v) ->
      if id <> "subject-id" then Pip.add_subject_attribute t.pip ~subject:user ~id v)
    attrs

let set_rbac t model =
  List.iter
    (fun user ->
      Idp.register_user t.idp ~user (Dacs_rbac.Compile.subject_for_user model user);
      Pip.set_subject_attribute t.pip ~subject:user ~id:"role"
        (List.map (fun r -> Value.String r) (Dacs_rbac.Rbac.authorized_roles model user)))
    (Dacs_rbac.Rbac.users model);
  set_local_policy t
    (Policy.Inline_policy (Dacs_rbac.Compile.to_policy ~id:(t.name ^ "-rbac") model))

let seed_of_name name =
  (* Stable per-name seed so domains are reproducible without coordination. *)
  let digest = Dacs_crypto.Sha256.digest name in
  let v = ref 0L in
  String.iteri
    (fun i c -> if i < 8 then v := Int64.logor !v (Int64.shift_left (Int64.of_int (Char.code c)) (8 * i)))
    digest;
  !v

let l2 t = t.l2

(* The domain's one cache purge: its L2 when attached, then every PEP's
   L1 with the same region, so no cache level outlives a revocation or a
   publish. *)
let purge t region =
  Option.iter (fun l2 -> Cache_hierarchy.L2.invalidate_region l2 region) t.l2;
  List.iter (fun pep -> ignore (Pep.invalidate_region pep region)) t.peps

let attach_l2 t ~ttl () =
  match t.l2 with
  | Some l2 -> l2
  | None ->
    let net = Service.net t.services in
    let node = t.name ^ ".l2" in
    Dacs_net.Net.add_node net node;
    let l2 = Cache_hierarchy.L2.create t.services ~node ~ttl () in
    List.iter (fun pep -> Pep.set_l2 pep (Some node)) t.peps;
    t.l2 <- Some l2;
    l2

let create services ~name ?attr_cache_ttl () =
  let rng = Dacs_crypto.Rng.create (seed_of_name name) in
  (* The first key of the domain's stream is reserved for a domain CA,
     which nothing issues from yet; the IdP key is the second draw. *)
  ignore (Rsa.generate rng ~bits:512 : Rsa.keypair);
  let idp_keys = Rsa.generate rng ~bits:512 in
  let net = Service.net services in
  let node suffix =
    let id = name ^ "." ^ suffix in
    Dacs_net.Net.add_node net id;
    id
  in
  let pap = Pap.create services ~node:(node "pap") ~name:(name ^ "-pap") () in
  let pip = Pip.create services ~node:(node "pip") in
  let pdp =
    Pdp_service.create services ~node:(node "pdp") ~name:(name ^ "-pdp") ~pap:(Pap.node pap)
      ~pips:[ Pip.node pip ] ?attr_cache_ttl ()
  in
  let idp = Idp.create services ~node:(node "idp") ~issuer:("idp." ^ name) ~keypair:idp_keys () in
  let t =
    {
      name;
      services;
      audit = Audit.create ();
      pap;
      pip;
      pdp;
      idp;
      local = None;
      vo_policy = None;
      peps = [];
      l2 = None;
    }
  in
  (* Syndicated updates land as the VO component of the combined root. *)
  Pap.set_update_transform t.pap (fun incoming ->
      t.vo_policy <- Some incoming;
      combined t);
  (* Every update the PAP accepts, local or syndicated, purges the
     decisions cached under the old policy by change-impact region: only
     entries the update can affect drop (a first policy's region is
     Unbounded, a full flush). *)
  Pap.on_update t.pap (purge t);
  t

let expose_resource t ~resource ?content ?cache ?pdps ?(call_timeout = 1.0) () =
  let net = Service.net t.services in
  let node = Printf.sprintf "%s.pep.%s" t.name resource in
  Dacs_net.Net.add_node net node;
  let pdps = Option.value pdps ~default:[ pdp_node t ] in
  let pep =
    Pep.create t.services ~node ~domain:t.name ~resource ?content ~audit:t.audit
      ~encryption_key:(Dacs_crypto.Stream_cipher.derive_key (t.name ^ "/" ^ resource))
      (Pep.Pull { pdps; cache; call_timeout })
  in
  Option.iter (fun l2 -> Pep.set_l2 pep (Some (Cache_hierarchy.L2.node l2))) t.l2;
  t.peps <- pep :: t.peps;
  pep

let peps t = List.rev t.peps

let find_pep t ~resource = List.find_opt (fun p -> Pep.resource p = resource) t.peps
