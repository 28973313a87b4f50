(* Experiment harness: regenerates every figure-derived experiment table
   (E1..E11 in DESIGN.md) and a set of Bechamel micro-benchmarks.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe e2 e4      # selected experiments
     dune exec bench/main.exe micro      # micro-benchmarks only

   Each experiment runs in its own forked child (Dacs_experiment); the
   gated ones (e16..e23) declare their CHECKs there, and the exit status
   is non-zero when any gate fails or never produces a verdict.

   The paper (DSN'08 requirements/architecture paper) has no numeric
   tables; each experiment operationalises one of its figures or §3
   claims.  EXPERIMENTS.md records claim vs measurement. *)

module Xml = Dacs_xml.Xml
module Value = Dacs_policy.Value
module Context = Dacs_policy.Context
module Decision = Dacs_policy.Decision
module Policy = Dacs_policy.Policy
module Rule = Dacs_policy.Rule
module Expr = Dacs_policy.Expr
module Target = Dacs_policy.Target
module Combine = Dacs_policy.Combine
module Net = Dacs_net.Net
module Engine = Dacs_net.Engine
module Service = Dacs_ws.Service
module Soap = Dacs_ws.Soap
module Security = Dacs_ws.Security
module Assertion = Dacs_saml.Assertion
module Rbac = Dacs_rbac.Rbac
module Compile = Dacs_rbac.Compile
module Rng = Dacs_crypto.Rng
module Rsa = Dacs_crypto.Rsa
module Experiment = Dacs_experiment.Experiment
module Gate = Experiment.Gate
module Loghist = Dacs_telemetry.Loghist
open Dacs_core

let header title claim =
  Printf.printf "\n%s\n%s\n%s\n" (String.make 78 '=') title (String.make 78 '-');
  Printf.printf "claim: %s\n\n" claim

let fresh () =
  let net = Net.create () in
  let services = Service.create (Dacs_net.Rpc.create net) in
  (net, services)

let doctor_subject user = [ ("subject-id", Value.String user); ("role", Value.String "doctor") ]

let doctor_read_policy ?(id = "policy") ?(issuer = "") resource =
  Policy.Inline_policy
    (Policy.make ~id ~issuer ~rule_combining:Combine.First_applicable
       [
         Rule.permit
           ~target:
             Target.(
               any |> subject_is "role" "doctor" |> resource_is "resource-id" resource
               |> action_is "action-id" "read")
           "permit-doctor-read";
         Rule.deny "default-deny";
       ])

(* Time a thunk with Sys.time, running it repeatedly for at least 0.2 s;
   returns microseconds per run. *)
let time_us f =
  let t0 = Sys.time () in
  let reps = ref 0 in
  while Sys.time () -. t0 < 0.2 do
    f ();
    incr reps
  done;
  (Sys.time () -. t0) *. 1e6 /. float_of_int !reps

(* ==================================================================== *)
(* E1 — Fig. 1 baseline: a VO of N domains serving cross-domain reads   *)
(* ==================================================================== *)

let e1_vo_baseline () =
  header "E1  Virtual Organisation baseline (Fig. 1)"
    "the architecture serves cross-domain requests; per-request message cost is \
     flat in the number of domains (components are contacted per request, not per VO size)";
  Printf.printf "%8s %10s %10s %12s %12s %14s\n" "domains" "requests" "granted" "msgs/req" "bytes/req"
    "mean lat (ms)";
  List.iter
    (fun n_domains ->
      let net, services = fresh () in
      let domains =
        List.init n_domains (fun i -> Domain.create services ~name:(Printf.sprintf "org%d" i) ())
      in
      let vo = Vo.form services ~name:"vo" domains in
      Vo.publish_policy vo (doctor_read_policy ~id:"vo-policy" ~issuer:"vo" "shared");
      Net.run net;
      let peps = List.map (fun d -> Domain.expose_resource d ~resource:"shared" ()) domains in
      let clients =
        List.mapi
          (fun i d ->
            Vo.client_for vo ~domain:d ~user:(Printf.sprintf "u%d" i)
              (doctor_subject (Printf.sprintf "u%d" i)))
          domains
      in
      Net.reset_stats net;
      let granted = ref 0 and total = ref 0 and lat_sum = ref 0.0 in
      (* Every client visits every foreign domain's resource once. *)
      List.iteri
        (fun ci client ->
          List.iteri
            (fun pi pep ->
              if ci <> pi then begin
                incr total;
                let issue_at = float_of_int !total in
                Engine.schedule (Net.engine net) ~delay:issue_at (fun () ->
                    let t0 = Net.now net in
                    Client.request client ~pep:(Pep.node pep) ~action:"read" ~timeout:10.0 (fun r ->
                        lat_sum := !lat_sum +. (Net.now net -. t0);
                        match r with Ok (Wire.Granted _) -> incr granted | _ -> ()))
              end)
            peps)
        clients;
      Net.run net;
      let sent = Net.total_sent net in
      Printf.printf "%8d %10d %10d %12.1f %12.0f %14.2f\n" n_domains !total !granted
        (float_of_int sent.Net.count /. float_of_int !total)
        (float_of_int sent.Net.bytes /. float_of_int !total)
        (1000.0 *. !lat_sum /. float_of_int !total))
    [ 2; 4; 8 ]

(* ==================================================================== *)
(* E2 — Fig. 2 vs Fig. 3: push vs pull vs agent                         *)
(* ==================================================================== *)

let e2_push_vs_pull () =
  header "E2  Push (capability, Fig. 2) vs pull (policy-issuing, Fig. 3) vs agent"
    "pull costs 4 messages per access; push costs 4 on first access then 2 on reuse \
     (capability caching); the agent model needs 2; caching pulls converge to 2";
  let run_mechanism mechanism accesses =
    let net, services = fresh () in
    let policy = doctor_read_policy "r" in
    Net.add_node net "client";
    let client = Client.create services ~node:"client" ~subject:(doctor_subject "alice") in
    Net.add_node net "pep";
    let do_request, label =
      match mechanism with
      | `Pull_nocache | `Pull_cache ->
        Net.add_node net "pdp";
        ignore (Pdp_service.create services ~node:"pdp" ~name:"pdp" ~root:policy ());
        let cache =
          if mechanism = `Pull_cache then Some (Decision_cache.create ~ttl:1e9 ()) else None
        in
        ignore
          (Pep.create services ~node:"pep" ~domain:"d" ~resource:"r"
             (Pep.Pull { pdps = [ "pdp" ]; cache; call_timeout = 1.0 }));
        ( (fun k -> Client.request client ~pep:"pep" ~action:"read" k),
          if mechanism = `Pull_cache then "pull+cache" else "pull" )
      | `Push ->
        Net.add_node net "cas";
        let keys = Rsa.generate (Rng.create 1L) ~bits:512 in
        let cas =
          Capability_service.create services ~node:"cas" ~issuer:"cas" ~keypair:keys ~root:policy
            ~validity:1e9 ()
        in
        ignore
          (Pep.create services ~node:"pep" ~domain:"d" ~resource:"r"
             (Pep.Push
                {
                  trusted_issuer =
                    (fun i -> if i = "cas" then Some (Capability_service.public_key cas) else None);
                  check_revocation = None;
                  local_pdp = None;
                }));
        ( (fun k ->
            Client.request_with_capability client ~capability_service:"cas" ~pep:"pep" ~resource:"r"
              ~action:"read" k),
          "push" )
      | `Agent ->
        let embedded = Pdp_service.create services ~node:"pep" ~name:"embedded" ~root:policy () in
        ignore (Pep.create services ~node:"pep" ~domain:"d" ~resource:"r" (Pep.Agent embedded));
        ((fun k -> Client.request client ~pep:"pep" ~action:"read" k), "agent")
    in
    let granted = ref 0 and lat = ref 0.0 in
    for i = 1 to accesses do
      Engine.schedule (Net.engine net) ~delay:(float_of_int i) (fun () ->
          let t0 = Net.now net in
          do_request (fun r ->
              lat := !lat +. (Net.now net -. t0);
              match r with Ok (Wire.Granted _) -> incr granted | _ -> ()))
    done;
    Net.run net;
    let sent = Net.total_sent net in
    ( label,
      !granted,
      float_of_int sent.Net.count /. float_of_int accesses,
      float_of_int sent.Net.bytes /. float_of_int accesses,
      1000.0 *. !lat /. float_of_int accesses )
  in
  Printf.printf "%10s | %-12s %8s %10s %12s %12s\n" "accesses" "mechanism" "granted" "msgs/acc"
    "bytes/acc" "lat (ms)";
  List.iter
    (fun accesses ->
      List.iter
        (fun mechanism ->
          let label, granted, msgs, bytes, lat = run_mechanism mechanism accesses in
          Printf.printf "%10d | %-12s %8d %10.2f %12.0f %12.2f\n" accesses label granted msgs bytes
            lat)
        [ `Pull_nocache; `Pull_cache; `Push; `Agent ];
      print_newline ())
    [ 1; 5; 20; 50 ]

(* ==================================================================== *)
(* E3 — Fig. 4: evaluation-engine cost                                  *)
(* ==================================================================== *)

let sized_policy ?(combining = Combine.First_applicable) n_rules =
  (* n_rules rules on distinct resources; requests for resource n-1 match
     only the last rule, forcing a full scan. *)
  Policy.make ~id:"sized" ~rule_combining:combining
    (List.init n_rules (fun i ->
         Rule.permit
           ~target:Target.(any |> resource_is "resource-id" (Printf.sprintf "res%d" i))
           (Printf.sprintf "r%d" i)))

let request_for i =
  Context.make ~subject:(doctor_subject "alice")
    ~resource:[ ("resource-id", Value.String (Printf.sprintf "res%d" i)) ]
    ~action:[ ("action-id", Value.String "read") ]
    ()

let e3_xacml_eval () =
  header "E3  Policy-evaluation cost (Fig. 4 engine)"
    "evaluation time grows linearly with the number of rules scanned; combining \
     algorithms differ by their short-circuit behaviour";
  Printf.printf "%8s %16s %16s\n" "rules" "worst-case (us)" "best-case (us)";
  List.iter
    (fun n ->
      let p = sized_policy n in
      let worst = request_for (n - 1) and best = request_for 0 in
      let t_worst = time_us (fun () -> ignore (Policy.evaluate worst p)) in
      let t_best = time_us (fun () -> ignore (Policy.evaluate best p)) in
      Printf.printf "%8d %16.2f %16.2f\n" n t_worst t_best)
    [ 10; 100; 1000 ];
  Printf.printf "\ncombining algorithms over 200 mixed rules (matching request):\n";
  Printf.printf "%-24s %14s\n" "algorithm" "us/eval";
  let mixed_rules =
    List.init 200 (fun i ->
        let mk = if i mod 2 = 0 then Rule.permit else Rule.deny in
        mk ~target:Target.(any |> resource_is "resource-id" "shared") (Printf.sprintf "r%d" i))
  in
  let ctx =
    Context.make ~subject:(doctor_subject "a")
      ~resource:[ ("resource-id", Value.String "shared") ]
      ()
  in
  List.iter
    (fun algorithm ->
      let p = Policy.make ~id:"mixed" ~rule_combining:algorithm mixed_rules in
      Printf.printf "%-24s %14.2f\n" (Combine.name algorithm)
        (time_us (fun () -> ignore (Policy.evaluate ctx p))))
    Combine.[ Deny_overrides; Permit_overrides; First_applicable ]

(* ==================================================================== *)
(* E4 — §3.2 caching: traffic saved vs staleness risked                 *)
(* ==================================================================== *)

let e4_caching () =
  header "E4  Decision caching (§3.2 communication performance)"
    "larger TTLs cut PEP->PDP traffic roughly as 1/TTL but widen the window in \
     which revoked rights are still honoured (stale permits)";
  Printf.printf "%8s %10s %10s %12s %14s %16s\n" "ttl(s)" "requests" "pdp calls" "hit rate"
    "stale permits" "staleness(s)";
  List.iter
    (fun ttl ->
      let net, services = fresh () in
      let domain = Domain.create services ~name:"d" () in
      Domain.set_local_policy domain (doctor_read_policy "ws");
      let cache = if ttl > 0.0 then Some (Decision_cache.create ~ttl ()) else None in
      Net.add_node net "c";
      let pep_node = "d.pep.ws" in
      Net.add_node net pep_node;
      let pep =
        Pep.create services ~node:pep_node ~domain:"d" ~resource:"ws" ~audit:(Domain.audit domain)
          (Pep.Pull { pdps = [ Domain.pdp_node domain ]; cache; call_timeout = 1.0 })
      in
      let client = Client.create services ~node:"c" ~subject:(doctor_subject "alice") in
      (* One request per second for 200 s; rights revoked at t=100 at the
         PAP (an administrator cannot reach PEP caches). *)
      let revoke_at = 100.0 in
      let stale = ref 0 and last_stale = ref 0.0 in
      let n_requests = 200 in
      for i = 1 to n_requests do
        Engine.schedule (Net.engine net) ~delay:(float_of_int i) (fun () ->
            Client.request client ~pep:pep_node ~action:"read" ~timeout:5.0 (fun r ->
                match r with
                | Ok (Wire.Granted _) ->
                  if Net.now net > revoke_at then begin
                    incr stale;
                    last_stale := Net.now net
                  end
                | _ -> ()))
      done;
      Engine.schedule (Net.engine net) ~delay:revoke_at (fun () ->
          Pap.publish (Domain.pap domain)
            (Policy.Inline_policy (Policy.make ~id:"lockdown" [ Rule.deny "d" ])));
      Net.run net;
      let s = Pep.stats pep in
      Printf.printf "%8.0f %10d %10d %12.2f %14d %16.1f\n" ttl n_requests s.Pep.pdp_calls
        (float_of_int s.Pep.cache_hits /. float_of_int n_requests)
        !stale
        (if !stale = 0 then 0.0 else !last_stale -. revoke_at))
    [ 0.0; 5.0; 30.0; 120.0 ]

(* ==================================================================== *)
(* E5 — Fig. 5: policy syndication hierarchy                            *)
(* ==================================================================== *)

let e5_syndication () =
  header "E5  Policy syndication (Fig. 5)"
    "syndicating policies to local PAPs moves per-decision policy fetches off the \
     WAN; update propagation delay grows with hierarchy depth";
  (* Part 1: WAN vs local traffic for three distribution architectures. *)
  let wan_latency = 0.040 and lan_latency = 0.001 in
  let decisions = 50 in
  Printf.printf "%-22s %12s %12s %16s\n" "architecture" "total msgs" "WAN msgs" "mean lat (ms)";
  let admin_from node =
    Policy.Inline_policy
      (Policy.make ~id:"adm" ~rule_combining:Combine.First_applicable
         [
           Rule.permit ~condition:(Expr.one_of (Expr.subject_attr "subject-id") [ node ]) "parent-may";
           Rule.deny "others-not";
         ])
  in
  let run_arch arch =
    let net, services = fresh () in
    Net.set_default_latency net lan_latency;
    List.iter (Net.add_node net) [ "root-pap"; "local-pap"; "pdp"; "pep"; "client" ];
    Net.set_latency net "pdp" "root-pap" wan_latency;
    Net.set_latency net "local-pap" "root-pap" wan_latency;
    let root_pap =
      Pap.create services ~node:"root-pap" ~name:"root" ~root:(doctor_read_policy "ws") ()
    in
    let pap_for_pdp, refresh =
      match arch with
      | `Central_every -> ("root-pap", Pdp_service.Every_query)
      | `Central_ttl -> ("root-pap", Pdp_service.Ttl 10.0)
      | `Syndicated ->
        let local =
          Pap.create services ~node:"local-pap" ~name:"local" ~admin_policy:(admin_from "root-pap") ()
        in
        Pap.subscribe_local root_pap ~child:(Pap.node local);
        (* Seed the local PAP via one syndication push. *)
        Pap.publish root_pap (doctor_read_policy "ws");
        ("local-pap", Pdp_service.Every_query)
    in
    ignore (Pdp_service.create services ~node:"pdp" ~name:"pdp" ~pap:pap_for_pdp ~refresh ());
    ignore
      (Pep.create services ~node:"pep" ~domain:"d" ~resource:"ws"
         (Pep.Pull { pdps = [ "pdp" ]; cache = None; call_timeout = 2.0 }));
    let client = Client.create services ~node:"client" ~subject:(doctor_subject "a") in
    Net.run net;
    Net.reset_stats net;
    Net.set_tracing net true;
    let lat = ref 0.0 in
    for i = 1 to decisions do
      Engine.schedule (Net.engine net) ~delay:(float_of_int i) (fun () ->
          let t0 = Net.now net in
          Client.request client ~pep:"pep" ~action:"read" ~timeout:5.0 (fun _ ->
              lat := !lat +. (Net.now net -. t0)))
    done;
    Net.run net;
    let sent = Net.total_sent net in
    let wan =
      List.length
        (List.filter
           (fun e -> e.Net.t_src = "root-pap" || e.Net.t_dst = "root-pap")
           (Net.trace net))
    in
    (sent.Net.count, wan, 1000.0 *. !lat /. float_of_int decisions)
  in
  List.iter
    (fun (label, arch) ->
      let total, wan, lat = run_arch arch in
      Printf.printf "%-22s %12d %12d %16.2f\n" label total wan lat)
    [
      ("central, every query", `Central_every);
      ("central, TTL=10s", `Central_ttl);
      ("syndicated local PAP", `Syndicated);
    ];
  (* Part 2: propagation delay through the hierarchy. *)
  Printf.printf "\nupdate propagation through a fan-out-2 hierarchy (WAN links %.0f ms):\n"
    (wan_latency *. 1000.0);
  Printf.printf "%8s %8s %18s %12s\n" "depth" "paps" "propagation (ms)" "push msgs";
  List.iter
    (fun depth ->
      let net, services = fresh () in
      Net.set_default_latency net wan_latency;
      Net.add_node net "root";
      let root = Pap.create services ~node:"root" ~name:"root" () in
      let count = ref 1 in
      let all_paps = ref [] in
      let rec build parent level prefix =
        if level < depth then
          List.iter
            (fun i ->
              let node = Printf.sprintf "%s-%d" prefix i in
              Net.add_node net node;
              incr count;
              let pap =
                Pap.create services ~node ~name:node ~admin_policy:(admin_from (Pap.node parent)) ()
              in
              Pap.subscribe_local parent ~child:node;
              all_paps := pap :: !all_paps;
              build pap (level + 1) node)
            [ 0; 1 ]
      in
      build root 0 "pap";
      Net.reset_stats net;
      (* Poll the hierarchy every millisecond: propagation is the instant
         the last PAP holds the update (RPC-timeout timers would otherwise
         dominate Net.now at quiescence). *)
      let propagated_at = ref nan in
      let rec poll () =
        if List.for_all (fun p -> Pap.current p <> None) !all_paps then
          propagated_at := Net.now net
        else if Net.now net < 10.0 then Engine.schedule (Net.engine net) ~delay:0.001 poll
      in
      Pap.publish root (doctor_read_policy "ws");
      Engine.schedule (Net.engine net) ~delay:0.001 poll;
      Net.run net;
      let sent = Net.total_sent net in
      Printf.printf "%8d %8d %18.1f %12d%s\n" depth !count (1000.0 *. !propagated_at)
        sent.Net.count
        (if Float.is_nan !propagated_at then "  (INCOMPLETE)" else ""))
    [ 1; 2; 3 ]

(* ==================================================================== *)
(* E6 — §3.2 message sizes: XML and WS-Security overhead                *)
(* ==================================================================== *)

let e6_message_size () =
  header "E6  Message sizes (§3.2; cf. Juric et al. on WS-Security overhead)"
    "XML-encoded authorisation messages are verbose; signing and encrypting \
     multiply envelope size; policy size grows linearly with rule count";
  let ctx =
    Context.make ~subject:(doctor_subject "alice")
      ~resource:[ ("resource-id", Value.String "patient-records") ]
      ~action:[ ("action-id", Value.String "read") ]
      ~environment:[ ("time", Value.Time 42.0) ]
      ()
  in
  let query_body = Wire.authz_query ctx in
  let plain = { Soap.headers = []; body = query_body } in
  let keys = Rsa.generate (Rng.create 3L) ~bits:512 in
  let cert =
    Dacs_crypto.Cert.self_signed keys ~subject:"cn=pep" ~serial:1 ~not_before:0.0 ~not_after:1e9
  in
  let signed = Security.sign ~key:keys.Rsa.private_ ~cert plain in
  let rng = Rng.create 4L in
  let key = Dacs_crypto.Stream_cipher.derive_key "chan" in
  let encrypted = Security.encrypt_body rng ~key signed in
  let size e = String.length (Soap.to_string e) in
  Printf.printf "%-38s %10s %8s\n" "message" "bytes" "ratio";
  let base = size plain in
  List.iter
    (fun (label, s) ->
      Printf.printf "%-38s %10d %8.2f\n" label s (float_of_int s /. float_of_int base))
    [
      ("authz query, plain SOAP", base);
      ("authz query, signed (WS-Security)", size signed);
      ("authz query, signed + encrypted", size encrypted);
    ];
  let assertion =
    Assertion.sign keys.Rsa.private_
      (Assertion.make ~id:"cap-1" ~issuer:"cas" ~subject:"alice" ~issued_at:0.0
         [
           Assertion.Attribute_statement (doctor_subject "alice");
           Assertion.Authz_decision_statement
             { resource = "patient-records"; action = "read"; decision = Decision.Permit };
         ])
  in
  Printf.printf "%-38s %10d %8.2f\n" "signed capability (SAML, CAS-style)"
    (String.length (Assertion.to_string assertion))
    (float_of_int (String.length (Assertion.to_string assertion)) /. float_of_int base);
  Printf.printf "%-38s %10d %8.2f\n" "signed capability (X.509, VOMS-style)"
    (String.length (Dacs_saml.Attribute_cert.to_string assertion))
    (float_of_int (String.length (Dacs_saml.Attribute_cert.to_string assertion))
    /. float_of_int base);
  Printf.printf "\npolicy document size vs rule count:\n%8s %12s %14s\n" "rules" "bytes" "bytes/rule";
  List.iter
    (fun n ->
      let p = sized_policy n in
      let bytes = String.length (Dacs_policy.Xacml_xml.child_to_string (Policy.Inline_policy p)) in
      Printf.printf "%8d %12d %14.1f\n" n bytes (float_of_int bytes /. float_of_int n))
    [ 10; 100; 1000 ]

(* ==================================================================== *)
(* E7 — §3.1 conflict detection and resolution                          *)
(* ==================================================================== *)

let e7_conflicts () =
  header "E7  Static conflict analysis (§3.1)"
    "policies authored independently by more domains over shared resources produce \
     more modality conflicts; combining algorithms resolve them differently";
  let roles = [ "doctor"; "nurse"; "admin"; "auditor" ] in
  let resources = [ "charts"; "labs"; "billing" ] in
  let actions = [ "read"; "write" ] in
  Printf.printf "%8s %8s %10s %12s %16s %10s\n" "domains" "rules" "conflicts" "cross-auth"
    "deny-resolved" "time(ms)";
  List.iter
    (fun n_domains ->
      let rng = Rng.create (Int64.of_int (100 + n_domains)) in
      let policies =
        List.init n_domains (fun d ->
            let rules =
              List.init 20 (fun i ->
                  let mk = if Rng.bool rng then Rule.permit else Rule.deny in
                  mk
                    ~target:
                      Target.(
                        any
                        |> subject_is "role" (Rng.pick rng roles)
                        |> resource_is "resource-id" (Rng.pick rng resources)
                        |> action_is "action-id" (Rng.pick rng actions))
                    (Printf.sprintf "d%d-r%d" d i))
            in
            Policy.Inline_policy
              (Policy.make
                 ~id:(Printf.sprintf "domain%d" d)
                 ~issuer:(Printf.sprintf "domain%d" d)
                 rules))
      in
      let set = Policy.make_set ~id:"vo" policies in
      let t0 = Sys.time () in
      let conflicts = Conflict.find_in_set set in
      let elapsed = (Sys.time () -. t0) *. 1000.0 in
      let cross = List.filter (fun c -> c.Conflict.cross_authority) conflicts in
      let deny_resolved =
        List.filter
          (fun c -> Conflict.resolution Combine.Deny_overrides c = Decision.Deny)
          conflicts
      in
      Printf.printf "%8d %8d %10d %12d %16d %10.2f\n" n_domains (20 * n_domains)
        (List.length conflicts) (List.length cross) (List.length deny_resolved) elapsed)
    [ 1; 2; 4; 8 ];
  (* Resolution semantics on one canonical conflict. *)
  let pa = Policy.make ~id:"pa" ~issuer:"a" [ Rule.permit ~target:(Target.for_resource "x") "p" ] in
  let pb = Policy.make ~id:"pb" ~issuer:"b" [ Rule.deny ~target:(Target.for_resource "x") "d" ] in
  match Conflict.find_between pa pb with
  | c :: _ ->
    Printf.printf "\nresolution of a permit/deny conflict on resource x:\n";
    List.iter
      (fun a ->
        Printf.printf "  %-26s -> %s\n" (Combine.name a)
          (Decision.decision_to_string (Conflict.resolution a c)))
      Combine.all
  | [] -> print_endline "unexpected: no conflict found"

(* ==================================================================== *)
(* E8 — dependability: availability under PDP crash faults              *)
(* ==================================================================== *)

let e8_dependability () =
  header "E8  Availability under PDP crashes (the paper's 'dependable' headline)"
    "replicating decision points and failing over on timeout keeps the authorisation \
     service available through crashes; availability rises steeply with replica count";
  let duration = 1000 in
  let seeds = [ 1; 2; 3; 4; 5 ] in
  let mtbf = 120.0 and mttr = 40.0 in
  Printf.printf
    "(MTBF %.0fs, MTTR %.0fs per replica, %d requests at 1/s, timeout 0.4s, mean of %d seeds)\n\n"
    mtbf mttr duration (List.length seeds);
  Printf.printf "%10s %14s %12s %14s\n" "replicas" "availability" "failovers" "mean lat (ms)";
  let run_once replicas seed =
    let net, services = fresh () in
    let policy = doctor_read_policy "ws" in
    let rng = Rng.create (Int64.of_int ((1000 * seed) + replicas)) in
    let nodes =
      List.init replicas (fun i ->
          let node = Printf.sprintf "pdp%d" i in
          Net.add_node net node;
          ignore (Pdp_service.create services ~node ~name:node ~root:policy ());
          (* Crash/recover schedule with jittered up/down periods. *)
          let rec schedule t =
            if t < float_of_int duration then begin
              let up = mtbf *. (0.5 +. Rng.float rng 1.0) in
              let down = mttr *. (0.5 +. Rng.float rng 1.0) in
              Engine.schedule (Net.engine net) ~delay:(t +. up) (fun () -> Net.crash net node);
              Engine.schedule (Net.engine net)
                ~delay:(t +. up +. down)
                (fun () -> Net.recover net node);
              schedule (t +. up +. down)
            end
          in
          schedule 0.0;
          node)
    in
    Net.add_node net "pep";
    let pep =
      Pep.create services ~node:"pep" ~domain:"d" ~resource:"ws"
        (Pep.Pull { pdps = nodes; cache = None; call_timeout = 0.4 })
    in
    Net.add_node net "c";
    let client = Client.create services ~node:"c" ~subject:(doctor_subject "alice") in
    let served = ref 0 and lat = ref 0.0 in
    for i = 1 to duration do
      Engine.schedule (Net.engine net) ~delay:(float_of_int i) (fun () ->
          let t0 = Net.now net in
          Client.request client ~pep:"pep" ~action:"read" ~timeout:10.0 (fun r ->
              match r with
              | Ok (Wire.Granted _) ->
                incr served;
                lat := !lat +. (Net.now net -. t0)
              | _ -> ()))
    done;
    Net.run net;
    ( float_of_int !served /. float_of_int duration,
      (Pep.stats pep).Pep.failovers,
      1000.0 *. !lat /. float_of_int (max 1 !served) )
  in
  List.iter
    (fun replicas ->
      let runs = List.map (run_once replicas) seeds in
      let n = float_of_int (List.length runs) in
      let avail = List.fold_left (fun acc (a, _, _) -> acc +. a) 0.0 runs /. n in
      let fo = List.fold_left (fun acc (_, f, _) -> acc + f) 0 runs / List.length runs in
      let lat = List.fold_left (fun acc (_, _, l) -> acc +. l) 0.0 runs /. n in
      Printf.printf "%10d %14.3f %12d %14.2f\n" replicas avail fo lat)
    [ 1; 2; 3; 4 ]

(* ==================================================================== *)
(* E9 — §3.1 trust negotiation                                          *)
(* ==================================================================== *)

let e9_negotiation () =
  header "E9  Trust negotiation (§3.1, Traust-style)"
    "negotiation cost (rounds, messages) grows linearly with the depth of the \
     credential-release chain; mutually suspicious policies deadlock and fail fast";
  Printf.printf "%8s %10s %10s %12s %12s\n" "depth" "success" "rounds" "messages" "disclosed";
  List.iter
    (fun depth ->
      (* Alternating chain: client cred i needs server cred i; server cred
         i needs client cred i-1; client cred 0 is free. *)
      let client_creds =
        List.init (depth + 1) (fun i ->
            if i = 0 then Negotiation.unprotected "c0"
            else Negotiation.protected_by (Printf.sprintf "c%d" i) [ Printf.sprintf "s%d" i ])
      in
      let server_creds =
        List.init depth (fun i ->
            Negotiation.protected_by (Printf.sprintf "s%d" (i + 1)) [ Printf.sprintf "c%d" i ])
      in
      let outcome =
        Negotiation.negotiate
          ~client:{ Negotiation.party_name = "client"; credentials = client_creds }
          ~server:{ Negotiation.party_name = "server"; credentials = server_creds }
          ~target:[ [ Printf.sprintf "c%d" depth ] ]
          ()
      in
      Printf.printf "%8d %10b %10d %12d %12d\n" depth outcome.Negotiation.success
        outcome.Negotiation.rounds outcome.Negotiation.messages
        (List.length outcome.Negotiation.disclosed_by_client
        + List.length outcome.Negotiation.disclosed_by_server))
    [ 0; 1; 2; 4; 8 ];
  (* The same chains over the network (Traust-style service): wire cost. *)
  Printf.printf "\nover the simulated network (negotiation service, ending in a capability):\n";
  Printf.printf "%8s %10s %12s %14s\n" "depth" "rounds" "messages" "bytes on wire";
  List.iter
    (fun depth ->
      let net, services = fresh () in
      List.iter (Net.add_node net) [ "traust"; "stranger" ];
      let keys = Rsa.generate (Rng.create 71L) ~bits:512 in
      let client_creds =
        List.init (depth + 1) (fun i ->
            if i = 0 then Dacs_core.Negotiation.unprotected "c0"
            else Dacs_core.Negotiation.protected_by (Printf.sprintf "c%d" i) [ Printf.sprintf "s%d" i ])
      in
      let server =
        Negotiation_service.create services ~node:"traust" ~issuer:"traust" ~keypair:keys
          ~credentials:
            (List.init depth (fun i ->
                 Dacs_core.Negotiation.protected_by
                   (Printf.sprintf "s%d" (i + 1))
                   [ Printf.sprintf "c%d" i ]))
          ~requirement_for:(fun ~resource:_ ~action:_ -> [ [ Printf.sprintf "c%d" depth ] ])
          ()
      in
      let outcome = ref None in
      Negotiation_service.negotiate server ~services ~client_node:"stranger"
        ~credentials:client_creds ~subject:[] ~resource:"r" ~action:"read" (fun o ->
          outcome := Some o);
      Net.run net;
      match !outcome with
      | Some o ->
        let sent = Net.total_sent net in
        Printf.printf "%8d %10d %12d %14d%s\n" depth o.Negotiation_service.rounds sent.Net.count
          sent.Net.bytes
          (if o.Negotiation_service.granted = None then "  (FAILED)" else "")
      | None -> Printf.printf "%8d  did not complete\n" depth)
    [ 0; 1; 2; 4; 8 ];

  (* Success rate vs policy strictness. *)
  Printf.printf "\nsuccess rate vs release-policy strictness (100 random bilateral policies each):\n";
  Printf.printf "%12s %14s %14s\n" "strictness" "success rate" "mean rounds";
  List.iter
    (fun strictness ->
      let rng = Rng.create (Int64.of_float ((strictness *. 1000.0) +. 1.0)) in
      let successes = ref 0 and rounds = ref 0 in
      for _ = 1 to 100 do
        let make_party prefix other_prefix =
          List.init 4 (fun i ->
              let name = Printf.sprintf "%s%d" prefix i in
              if Rng.float rng 1.0 < strictness then
                Negotiation.protected_by name [ Printf.sprintf "%s%d" other_prefix (Rng.int rng 4) ]
              else Negotiation.unprotected name)
        in
        let outcome =
          Negotiation.negotiate
            ~client:{ Negotiation.party_name = "c"; credentials = make_party "c" "s" }
            ~server:{ Negotiation.party_name = "s"; credentials = make_party "s" "c" }
            ~target:[ [ "c0"; "c1" ] ]
            ()
        in
        if outcome.Negotiation.success then incr successes;
        rounds := !rounds + outcome.Negotiation.rounds
      done;
      Printf.printf "%12.1f %14.2f %14.2f\n" strictness
        (float_of_int !successes /. 100.0)
        (float_of_int !rounds /. 100.0))
    [ 0.0; 0.3; 0.6; 0.9 ]

(* ==================================================================== *)
(* E10 — §3.2 delegation                                                *)
(* ==================================================================== *)

let e10_delegation () =
  header "E10  Delegation chains and revocation (§3.2)"
    "chain validation cost grows with delegation depth; revoking one link instantly \
     severs every authority derived through it";
  Printf.printf "%8s %14s %12s\n" "depth" "validate (us)" "authorised";
  List.iter
    (fun depth ->
      let d = Delegation.create ~roots:[ "root" ] in
      let rec build prev i =
        if i <= depth then begin
          (match
             Delegation.grant d ~can_redelegate:true ~delegator:prev
               ~delegate:(Printf.sprintf "a%d" i) ~scope:"" ~now:0.0 ~expires:1e9 ()
           with
          | Ok _ -> ()
          | Error e -> failwith e);
          build (Printf.sprintf "a%d" i) (i + 1)
        end
      in
      build "root" 1;
      let issuer = Printf.sprintf "a%d" depth in
      let t =
        time_us (fun () -> ignore (Delegation.authority_for d ~issuer ~resource:"x" ~now:1.0))
      in
      Printf.printf "%8d %14.2f %12b\n" depth t
        (Delegation.authority_for d ~issuer ~resource:"x" ~now:1.0))
    [ 1; 2; 4; 8; 16 ];
  (* Revocation cascade. *)
  let d = Delegation.create ~roots:[ "root" ] in
  let g1 =
    match
      Delegation.grant d ~can_redelegate:true ~delegator:"root" ~delegate:"a" ~scope:"" ~now:0.0
        ~expires:1e9 ()
    with
    | Ok g -> g
    | Error e -> failwith e
  in
  ignore
    (Delegation.grant d ~can_redelegate:true ~delegator:"a" ~delegate:"b" ~scope:"" ~now:0.0
       ~expires:1e9 ());
  ignore (Delegation.grant d ~delegator:"b" ~delegate:"c" ~scope:"" ~now:0.0 ~expires:1e9 ());
  Printf.printf "\nrevocation cascade (root -> a -> b -> c):\n";
  let show () =
    Printf.printf "  a=%b b=%b c=%b\n"
      (Delegation.authority_for d ~issuer:"a" ~resource:"x" ~now:1.0)
      (Delegation.authority_for d ~issuer:"b" ~resource:"x" ~now:1.0)
      (Delegation.authority_for d ~issuer:"c" ~resource:"x" ~now:1.0)
  in
  Printf.printf "  before revoking root->a:\n";
  show ();
  ignore (Delegation.revoke d ~grant_id:g1.Delegation.id);
  Printf.printf "  after revoking root->a:\n";
  show ()

(* ==================================================================== *)
(* E11 — §3.1 identity-based vs role-based policies at scale            *)
(* ==================================================================== *)

let e11_rbac_scale () =
  header "E11  Identity-based ACLs vs role-based policies (§3.1 scalability)"
    "identity-based policy stores grow linearly with the user base while role-based \
     stores stay constant; evaluation time follows store size";
  Printf.printf "%8s | %10s %12s %12s | %10s %12s %12s\n" "users" "acl rules" "acl bytes"
    "acl us/eval" "rbac rules" "rbac bytes" "rbac us/eval";
  List.iter
    (fun users ->
      let m = ref Rbac.empty in
      List.iter (fun r -> m := Rbac.add_role !m r) [ "doctor"; "nurse"; "clerk" ];
      let grant role p =
        match Rbac.grant_permission !m role p with Ok v -> m := v | Error e -> failwith e
      in
      grant "doctor" { Rbac.action = "read"; resource = "charts" };
      grant "doctor" { Rbac.action = "write"; resource = "charts" };
      grant "nurse" { Rbac.action = "read"; resource = "vitals" };
      grant "clerk" { Rbac.action = "read"; resource = "schedule" };
      for i = 0 to users - 1 do
        let role = List.nth [ "doctor"; "nurse"; "clerk" ] (i mod 3) in
        match Rbac.assign_user !m (Printf.sprintf "u%d" i) role with
        | Ok v -> m := v
        | Error e -> failwith e
      done;
      let acl = Compile.to_identity_policy !m in
      let rbac = Compile.to_policy !m in
      let last_user = Printf.sprintf "u%d" (users - 1) in
      let ctx =
        Context.make
          ~subject:(Compile.subject_for_user !m last_user)
          ~resource:[ ("resource-id", Value.String "schedule") ]
          ~action:[ ("action-id", Value.String "read") ]
          ()
      in
      let bytes p =
        String.length (Dacs_policy.Xacml_xml.child_to_string (Policy.Inline_policy p))
      in
      Printf.printf "%8d | %10d %12d %12.1f | %10d %12d %12.1f\n" users (Policy.rule_count acl)
        (bytes acl)
        (time_us (fun () -> ignore (Policy.evaluate ctx acl)))
        (Policy.rule_count rbac) (bytes rbac)
        (time_us (fun () -> ignore (Policy.evaluate ctx rbac))))
    [ 10; 100; 1000 ]

(* ==================================================================== *)
(* E12 — ablation: timeout failover vs discovery-driven rebinding       *)
(* ==================================================================== *)

let e12_discovery_ablation () =
  header "E12  Ablation: static failover list vs discovery-driven rebinding (§3.2)"
    "with a discovery registry, dead replicas are dropped from the PEP's list \
     proactively, so requests stop paying timeout penalties while a replica is down";
  let duration = 600 in
  let lease = 5.0 in
  Printf.printf "(3 replicas; replica 0 down from t=100 to t=400; lease %.0fs, timeout 0.4s)\n\n" lease;
  Printf.printf "%-28s %10s %12s %14s %12s\n" "strategy" "served" "failovers" "mean lat (ms)" "p-max (ms)";
  let run_strategy use_discovery =
    let net, services = fresh () in
    (* Failover against discovery alone: both arms turn the bus's default
       breaker off, which would otherwise skip the dead replica too. *)
    Dacs_net.Rpc.set_breaker (Service.rpc services) None;
    let policy = doctor_read_policy "ws" in
    List.iter (Net.add_node net) [ "registry"; "pep"; "c" ];
    let replicas =
      List.init 3 (fun i ->
          let node = Printf.sprintf "pdp%d" i in
          Net.add_node net node;
          ignore (Pdp_service.create services ~node ~name:node ~root:policy ());
          node)
    in
    let pep =
      Pep.create services ~node:"pep" ~domain:"d" ~resource:"ws"
        (Pep.Pull { pdps = replicas; cache = None; call_timeout = 0.4 })
    in
    if use_discovery then begin
      let reg = Discovery.create services ~node:"registry" ~lease () in
      List.iter (fun node -> Discovery.advertise reg ~services ~node ~kind:"pdp" ()) replicas;
      Discovery.auto_rebind reg ~pep ~kind:"pdp" ~period:(lease /. 2.0) ()
    end;
    Engine.schedule (Net.engine net) ~delay:100.0 (fun () -> Net.crash net "pdp0");
    Engine.schedule (Net.engine net) ~delay:400.0 (fun () -> Net.recover net "pdp0");
    let client = Client.create services ~node:"c" ~subject:(doctor_subject "alice") in
    let served = ref 0 and lat = ref 0.0 and worst = ref 0.0 in
    for i = 1 to duration do
      Engine.schedule (Net.engine net) ~delay:(float_of_int i) (fun () ->
          let t0 = Net.now net in
          Client.request client ~pep:"pep" ~action:"read" ~timeout:10.0 (fun r ->
              match r with
              | Ok (Wire.Granted _) ->
                incr served;
                let d = Net.now net -. t0 in
                lat := !lat +. d;
                if d > !worst then worst := d
              | _ -> ()))
    done;
    Net.run ~until:(float_of_int duration +. 20.0) net;
    ( !served,
      (Pep.stats pep).Pep.failovers,
      1000.0 *. !lat /. float_of_int (max 1 !served),
      1000.0 *. !worst )
  in
  List.iter
    (fun (label, use_discovery) ->
      let served, failovers, lat, worst = run_strategy use_discovery in
      Printf.printf "%-28s %10d %12d %14.2f %12.0f\n" label served failovers lat worst)
    [ ("timeout failover only", false); ("discovery rebinding", true) ]

(* ==================================================================== *)
(* E14 — ablation: resilience machinery under a chaos schedule          *)
(* ==================================================================== *)

let e14_resilience () =
  header "E14  Ablation: retry/backoff + circuit breaker + stale cache under chaos"
    "under loss, crash and latency faults, the resilience layers turn most \
     degraded-window denials back into correct grants, without ever granting \
     beyond the policy";
  let module Faults = Dacs_net.Faults in
  let module Rpc = Dacs_net.Rpc in
  let duration = 60 in
  let schedule =
    [
      Faults.Drop_burst { rate = 0.7; window = { Faults.from_ = 5.0; until_ = 20.0 } };
      Faults.Crash_restart { node = "pdp0"; at = 10.0; restart = Some 30.0 };
      Faults.Latency_spike
        { a = "pep"; b = "pdp1"; latency = 1.5; window = { Faults.from_ = 15.0; until_ = 40.0 } };
    ]
  in
  Printf.printf "(2 replicas; 1 req/s for %ds; schedule:\n" duration;
  List.iter (fun s -> Printf.printf "   %s\n" (Faults.describe s)) schedule;
  Printf.printf ")\n\n%-30s %8s %8s %9s %8s %8s %8s\n" "configuration" "granted" "denied"
    "retries" "trips" "stale" "viols";
  let run_config label ~retry ~breaker ~stale =
    let net = Net.create ~seed:11L () in
    let rpc = Rpc.create net in
    let services = Service.create rpc in
    let policy = doctor_read_policy "ws" in
    List.iter (Net.add_node net) [ "pep"; "alice"; "mallory" ];
    let replicas =
      List.init 2 (fun i ->
          let node = Printf.sprintf "pdp%d" i in
          Net.add_node net node;
          ignore (Pdp_service.create services ~node ~name:node ~root:policy ());
          node)
    in
    let cache = Decision_cache.create ~ttl:2.0 () in
    let pep =
      Pep.create services ~node:"pep" ~domain:"d" ~resource:"ws" ~content:"x"
        (Pep.Pull { pdps = replicas; cache = Some cache; call_timeout = 0.4 })
    in
    let retry_policy =
      { Rpc.attempts = 3; base_delay = 0.2; multiplier = 2.0; max_delay = 1.0; jitter = 0.1 }
    in
    (* Retry on every lossy leg: client->PEP and PEP->PDP. *)
    let client_retry = if retry then Some retry_policy else None in
    if retry then Pep.set_retry_policy pep (Some retry_policy);
    (* A bus starts with the default breaker: the arms without one opt out. *)
    Rpc.set_breaker rpc
      (if breaker then Some { Rpc.failure_threshold = 4; cooldown = 3.0 } else None);
    if stale then Pep.set_stale_window pep 30.0;
    Faults.apply net schedule;
    let alice = Client.create services ~node:"alice" ~subject:(doctor_subject "alice") in
    let mallory =
      Client.create services ~node:"mallory"
        ~subject:[ ("subject-id", Value.String "mallory"); ("role", Value.String "intern") ]
    in
    let granted = ref 0 and denied = ref 0 and violations = ref 0 in
    for i = 1 to duration do
      Engine.schedule (Net.engine net) ~delay:(float_of_int i) (fun () ->
          Client.request alice ~pep:"pep" ~action:"read" ~timeout:10.0 ?retry:client_retry
            (fun r ->
              match r with
              | Ok (Wire.Granted _) -> incr granted
              | _ -> incr denied);
          Client.request mallory ~pep:"pep" ~action:"read" ~timeout:10.0 ?retry:client_retry
            (fun r -> match r with Ok (Wire.Granted _) -> incr violations | _ -> ()))
    done;
    Net.run ~until:(float_of_int duration +. 30.0) net;
    let s = Pep.stats pep in
    Printf.printf "%-30s %8d %8d %9d %8d %8d %8d\n" label !granted !denied s.Pep.retries
      s.Pep.breaker_trips s.Pep.stale_serves !violations
  in
  run_config "failover only" ~retry:false ~breaker:false ~stale:false;
  run_config "+ retry/backoff" ~retry:true ~breaker:false ~stale:false;
  run_config "+ circuit breaker" ~retry:true ~breaker:true ~stale:false;
  run_config "+ stale-cache degradation" ~retry:true ~breaker:true ~stale:true

(* ==================================================================== *)
(* E15 — telemetry overhead                                             *)
(* ==================================================================== *)

let e15_telemetry () =
  header "E15  Telemetry overhead: registry primitives and tracing cost"
    "instrumenting the hot paths costs nanoseconds per event, and a fully \
     traced request stays within a small constant factor of an untraced one";
  let module Metrics = Dacs_telemetry.Metrics in
  let module Rpc = Dacs_net.Rpc in
  (* Registry primitives: the per-event cost paid on every hot path. *)
  let m = Metrics.create () in
  let c = Metrics.counter m ~labels:[ ("node", "pep") ] "bench_total" in
  let g = Metrics.gauge m "bench_gauge" in
  let h = Metrics.histogram m "bench_seconds" in
  Printf.printf "%-38s %10s\n" "primitive" "us/op";
  Printf.printf "%-38s %10.3f\n" "counter inc" (time_us (fun () -> Metrics.inc c));
  Printf.printf "%-38s %10.3f\n" "counter lookup + inc"
    (time_us (fun () -> Metrics.inc (Metrics.counter m ~labels:[ ("node", "pep") ] "bench_total")));
  Printf.printf "%-38s %10.3f\n" "gauge set" (time_us (fun () -> Metrics.set_gauge g 42.));
  Printf.printf "%-38s %10.3f\n" "histogram observe"
    (time_us (fun () -> Metrics.observe h 0.0421));
  (* End-to-end: one full Fig. 3 pull flow (PEP -> PDP -> PIP/PAP), with
     and without span recording, on the simulated network. *)
  let run_flow ~tracing () =
    let net = Net.create ~seed:7L () in
    let rpc = Dacs_net.Rpc.create net in
    let services = Service.create rpc in
    if tracing then Rpc.set_tracing rpc true;
    let domain = Domain.create services ~name:"demo" () in
    Domain.set_local_policy domain (doctor_read_policy "r");
    let pep = Domain.expose_resource domain ~resource:"r" ~content:"x" () in
    Domain.register_user domain ~user:"alice" [ ("role", Value.String "doctor") ];
    Net.add_node net "cli";
    let client =
      Client.create services ~node:"cli" ~subject:[ ("subject-id", Value.String "alice") ]
    in
    Client.request client ~pep:(Pep.node pep) ~action:"read" (fun _ -> ());
    Net.run net
  in
  let off = time_us (run_flow ~tracing:false) in
  let on = time_us (run_flow ~tracing:true) in
  Printf.printf "\n%-38s %10s %10s\n" "full pull flow (sim incl. setup)" "us/req" "ratio";
  Printf.printf "%-38s %10.1f %10s\n" "  tracing off" off "1.00x";
  Printf.printf "%-38s %10.1f %9.2fx\n" "  tracing on (10-span tree)" on (on /. off)

(* ==================================================================== *)
(* E16 — sharded, batched PDP tier: shard count x batch size ablation   *)
(* ==================================================================== *)

let e16_sharded_tier =
  Experiment.v "e16"
    ~gates:Gate.[ exact "all-requests-granted"; exact "balanced-shards";
                  ratio "speedup>=3x at 4 shards" ~at_least:3.0 ]
  @@ fun x ->
  header "E16  Sharded, batched PDP tier (shard count x batch size ablation)"
    "hash-partitioning the Fig. 3 flow across PDP replicas multiplies sustained \
     throughput near-linearly in shards (>= 3x at 4 shards), and batching cuts \
     per-request message cost without changing any decision";
  let requests = 200 in
  let service_time = 0.004 (* seconds of PDP evaluation capacity per query *) in
  let policy = doctor_read_policy ~id:"vo-policy" ~issuer:"vo" "shared" in
  (* One VO workload run: [requests] distinct users burst at the same
     virtual instant against one enforcement point.  Throughput is
     requests / virtual makespan, so it measures the architecture (queueing
     at the decision points), not the host machine. *)
  let run ~shards ~batch =
    let net, services = fresh () in
    let domain = Domain.create services ~name:"org" () in
    let vo = Vo.form services ~name:"vo" [ domain ] in
    Vo.publish_policy vo policy;
    Net.run net;
    Net.add_node net "vo.pep";
    let tier_stats, pdp_nodes, pep =
      if shards = 0 then begin
        (* Single-PDP baseline: classic pull mode, same capacity model. *)
        Net.add_node net "vo.pdp.single";
        ignore
          (Pdp_service.create services ~node:"vo.pdp.single" ~name:"single" ~root:policy
             ~refresh:Pdp_service.Never ~service_time ());
        ( (fun () -> None),
          [ "vo.pdp.single" ],
          Pep.create services ~node:"vo.pep" ~domain:"vo" ~resource:"shared" ~content:"x"
            (Pep.Pull { pdps = [ "vo.pdp.single" ]; cache = None; call_timeout = 8.0 }) )
      end
      else begin
        let tier, replicas =
          Vo.pdp_tier vo ~node:"vo.pep" ~shards ~batch ~vnodes:128 ~service_time
            ~refresh:Pdp_service.Never ~root:policy ()
        in
        ( (fun () -> Some (Pdp_tier.stats tier)),
          List.map Pdp_service.node replicas,
          Pep.create services ~node:"vo.pep" ~domain:"vo" ~resource:"shared" ~content:"x"
            (Pep.Sharded { tier; cache = None }) )
      end
    in
    let start = Net.now net +. 1.0 in
    let granted = ref 0 and last_answer = ref start in
    List.iter
      (fun i ->
        let node = Printf.sprintf "vo.cli.%d" i in
        Net.add_node net node;
        let client = Client.create services ~node ~subject:(doctor_subject (Printf.sprintf "u%d" i)) in
        Engine.schedule_at (Net.engine net) ~at:start (fun () ->
            Client.request client ~pep:(Pep.node pep) ~action:"read" ~timeout:30.0 (fun r ->
                last_answer := Float.max !last_answer (Net.now net);
                match r with Ok (Wire.Granted _) -> incr granted | _ -> ())))
      (List.init requests (fun i -> i));
    Net.reset_stats net;
    Net.run net;
    let sent = Net.total_sent net in
    let makespan = !last_answer -. start in
    let throughput = float_of_int requests /. makespan in
    let evaluated node =
      Dacs_telemetry.Metrics.counter_value
        (Dacs_telemetry.Metrics.counter (Service.metrics services)
           ~labels:[ ("node", node) ]
           "pdp_queries_total")
    in
    ( !granted,
      makespan,
      throughput,
      float_of_int sent.Net.count /. float_of_int requests,
      tier_stats (),
      List.map (fun n -> (n, evaluated n)) pdp_nodes )
  in
  let _, _, base_tput, _, _, _ = run ~shards:0 ~batch:1 in
  Printf.printf "%-22s %8s %10s %10s %9s %9s %11s\n" "configuration" "granted" "makespan" "req/s"
    "speedup" "msgs/req" "mean batch";
  let short = ref [] in
  let row label (granted, makespan, tput, msgs, tier, _) =
    let mean_batch =
      match tier with
      | Some s when s.Pdp_tier.batches > 0 ->
        Printf.sprintf "%.1f" (float_of_int s.Pdp_tier.dispatched /. float_of_int s.Pdp_tier.batches)
      | _ -> "-"
    in
    Printf.printf "%-22s %8d %9.3fs %10.0f %8.2fx %9.1f %11s\n" label granted makespan tput
      (tput /. base_tput) msgs mean_batch;
    if granted <> requests then short := Printf.sprintf "%s: %d/%d" label granted requests :: !short
  in
  row "single PDP (pull)" (run ~shards:0 ~batch:1);
  List.iter (fun shards -> row (Printf.sprintf "%d shards, batch 8" shards) (run ~shards ~batch:8))
    [ 1; 2; 4; 8 ];
  List.iter (fun batch -> row (Printf.sprintf "4 shards, batch %d" batch) (run ~shards:4 ~batch))
    [ 1; 4; 16 ];
  (* The balanced workload the CI smoke test gates on: 4 shards, batch 8. *)
  let _, _, tput4, _, _, per_shard = run ~shards:4 ~batch:8 in
  Printf.printf "\nper-shard evaluations (4 shards, batch 8):\n";
  List.iter (fun (node, n) -> Printf.printf "  %-14s %6d evaluations\n" node n) per_shard;
  print_newline ();
  Experiment.check x "all-requests-granted" (!short = [])
    (if !short = [] then "every configuration granted every request"
     else "short: " ^ String.concat ", " (List.rev !short));
  let least = List.fold_left (fun acc (_, n) -> min acc n) max_int per_shard in
  Experiment.check x "balanced-shards" (least > 0)
    (Printf.sprintf "least-loaded of %d shards evaluated %d queries" (List.length per_shard) least);
  Experiment.ratio x "speedup>=3x at 4 shards" tput4 base_tput;
  Experiment.metric x "single_pdp_req_s" base_tput;
  Experiment.metric x "four_shards_req_s" tput4;
  Experiment.metric x "speedup_4_shards" (tput4 /. base_tput)

(* ==================================================================== *)
(* E17 — hierarchical caching + batched attribute resolution ablation   *)
(* ==================================================================== *)

type e17_run = {
  granted : int;
  total : int;
  cold_mpr : float;
  warm_mpr : float;
  frames : int;  (* attribute frames the PDP sent *)
  served : int;  (* attribute lookups the PIP answered *)
  l2_hits : int;
  coalesced : int;
  p50 : float;
  p99 : float;
}

let e17_cache_hierarchy =
  Experiment.v "e17"
    ~gates:Gate.[ exact "all-requests-granted"; exact "warm msgs/req < 2.2 (full config)";
                  ratio "attr RPCs/decision reduced >= 2x by batching" ~at_least:2.0 ]
  @@ fun x ->
  header "E17  Hierarchical caching + batched attribute resolution (ablation)"
    "stacking the cache hierarchy — per-PEP L1 with single-flight coalescing, \
     domain-shared L2, PDP attribute cache — cuts warm-path message cost to the \
     bare request/response pair (< 2.2 msgs/req) without changing any decision, \
     and batched PIP fetches answer >= 2x as many attribute lookups as they \
     send frames";
  let users = 12 in
  let actions = [ "read"; "write"; "audit" ] in
  (* Deny-overrides over independent permit conditions: one decision
     needs all three subject attributes, none carried by the client. *)
  let policy =
    Policy.Inline_policy
      (Policy.make ~id:"attr-heavy" ~issuer:"d" ~rule_combining:Combine.Deny_overrides
         [
           Rule.permit ~condition:(Expr.one_of (Expr.subject_attr "role") [ "doctor" ]) "by-role";
           Rule.permit
             ~condition:(Expr.one_of (Expr.subject_attr "clearance") [ "secret" ])
             "by-clearance";
           Rule.permit
             ~condition:(Expr.one_of (Expr.subject_attr "department") [ "cardio" ])
             "by-department";
         ])
  in
  (* One run: two PEP replicas guard the same resource.  Cold phase —
     every (user, action) hits replica 0 twice at the same instant (the
     coalescing opportunity), then once at replica 1 (the L2
     opportunity).  Warm phase — every pair revisits both replicas.
     Decisions must all be Permit; messages and attribute frames are
     counted per phase. *)
  let run ~l2 ~attr_cache =
    let net, services = fresh () in
    let add id =
      Net.add_node net id;
      id
    in
    let pip = Pip.create services ~node:(add "pip") ~name:"pip" in
    let pdp =
      Pdp_service.create services ~node:(add "pdp") ~name:"pdp" ~root:policy ~pips:[ "pip" ]
        ?attr_cache_ttl:(if attr_cache then Some 3600.0 else None)
        ()
    in
    let l2_cache =
      if l2 then Some (Cache_hierarchy.L2.create services ~node:(add "l2") ~ttl:3600.0 ()) else None
    in
    let peps =
      List.init 2 (fun i ->
          let pep =
            Pep.create services ~node:(add (Printf.sprintf "pep%d" i)) ~domain:"d" ~resource:"r"
              ~content:"x"
              (Pep.Pull
                 {
                   pdps = [ "pdp" ];
                   cache = Some (Decision_cache.create ~ttl:3600.0 ());
                   call_timeout = 5.0;
                 })
          in
          Option.iter (fun c -> Pep.set_l2 pep (Some (Cache_hierarchy.L2.node c))) l2_cache;
          pep)
    in
    let pep0 = List.nth peps 0 and pep1 = List.nth peps 1 in
    let clients =
      List.init users (fun i ->
          let user = Printf.sprintf "u%d" i in
          List.iter
            (fun (id, v) -> Pip.add_subject_attribute pip ~subject:user ~id (Value.String v))
            [ ("role", "doctor"); ("clearance", "secret"); ("department", "cardio") ];
          Client.create services
            ~node:(add ("cli." ^ user))
            ~subject:[ ("subject-id", Value.String user) ])
    in
    let granted = ref 0 and total = ref 0 and lats = Loghist.create () in
    let issue client pep action ~at =
      incr total;
      Engine.schedule_at (Net.engine net) ~at (fun () ->
          let t0 = Net.now net in
          Client.request client ~pep:(Pep.node pep) ~action ~timeout:5.0 (fun r ->
              Loghist.observe lats (Net.now net -. t0);
              match r with Ok (Wire.Granted _) -> incr granted | _ -> ()))
    in
    (* Cold phase: spread (user, action) slots one virtual second apart
       so the PDP attribute cache can fill between a user's actions. *)
    Net.reset_stats net;
    let slot = ref (Net.now net +. 1.0) in
    List.iteri
      (fun _ client ->
        List.iter
          (fun action ->
            issue client pep0 action ~at:!slot;
            issue client pep0 action ~at:!slot;
            (* concurrent duplicate *)
            slot := !slot +. 1.0)
          actions)
      clients;
    let replica_phase = !slot +. 6.0 in
    List.iteri
      (fun i client ->
        List.iteri
          (fun ai action ->
            issue client pep1 action
              ~at:(replica_phase +. float_of_int ((i * List.length actions) + ai)))
          actions)
      clients;
    Net.run net;
    let cold_requests = !total in
    let cold_sent = (Net.total_sent net).Net.count in
    (* Warm phase: every pair revisits both replicas; all answers must
       come from L1. *)
    Net.reset_stats net;
    let warm_at = Net.now net +. 1.0 in
    List.iter
      (fun client ->
        List.iter
          (fun action ->
            issue client pep0 action ~at:warm_at;
            issue client pep1 action ~at:warm_at)
          actions)
      clients;
    Net.run net;
    let warm_requests = !total - cold_requests in
    let warm_sent = (Net.total_sent net).Net.count in
    let stats = List.map Pep.stats peps in
    let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
    let pct = Loghist.quantile lats in
    {
      granted = !granted;
      total = !total;
      cold_mpr = float_of_int cold_sent /. float_of_int cold_requests;
      warm_mpr = float_of_int warm_sent /. float_of_int warm_requests;
      frames = (Pdp_service.stats pdp).Pdp_service.pip_fetches;
      served = Pip.lookups_served pip;
      l2_hits = sum (fun s -> s.Pep.l2_hits);
      coalesced = sum (fun s -> s.Pep.coalesced);
      p50 = 1000.0 *. pct 0.50;
      p99 = 1000.0 *. pct 0.99;
    }
  in
  let configs =
    [ ("l1 only", false, false); ("+ shared l2", true, false); ("+ attr cache = full", true, true) ]
  in
  Printf.printf "%-20s %9s %9s %9s %11s %11s %8s %10s %9s %9s\n" "configuration" "granted" "cold m/r"
    "warm m/r" "attr frames" "attr served" "l2 hits" "coalesced" "p50 (ms)" "p99 (ms)";
  let short = ref [] in
  let results =
    List.map
      (fun (label, l2, attr_cache) ->
        let r = run ~l2 ~attr_cache in
        Printf.printf "%-20s %4d/%-4d %9.2f %9.2f %11d %11d %8d %10d %9.2f %9.2f\n" label r.granted
          r.total r.cold_mpr r.warm_mpr r.frames r.served r.l2_hits r.coalesced r.p50 r.p99;
        if r.granted <> r.total then
          short := Printf.sprintf "%s: %d/%d" label r.granted r.total :: !short;
        r)
      configs
  in
  (* Batching, measured within the full run: a one-RPC-per-attribute
     fetch would send one frame per lookup the PIP served. *)
  let full = List.nth results (List.length results - 1) in
  let lookups_per_frame = float_of_int full.served /. float_of_int (max 1 full.frames) in
  print_newline ();
  Experiment.check x "all-requests-granted" (!short = [])
    (if !short = [] then "every configuration granted every request"
     else "short: " ^ String.concat ", " (List.rev !short));
  Experiment.check x "warm msgs/req < 2.2 (full config)" (full.warm_mpr < 2.2)
    (Printf.sprintf "%.2f" full.warm_mpr);
  Experiment.ratio x "attr RPCs/decision reduced >= 2x by batching"
    ~detail:(Printf.sprintf "%d lookups in %d frames" full.served full.frames)
    (float_of_int full.served) (float_of_int (max 1 full.frames));
  Experiment.metric x "warm_msgs_per_req" full.warm_mpr;
  Experiment.metric x "attr_frame_reduction" lookups_per_frame;
  Experiment.count x "attr_queries_served" full.served;
  Experiment.count x "attr_frames" full.frames

(* ==================================================================== *)
(* E18 — workload engine: overload protection ablation                  *)
(* ==================================================================== *)

let e18_workload =
  Experiment.v "e18"
    ~gates:Gate.[ exact "conservation"; exact "shedding-engages"; exact "p99-bounded";
                  exact "no-shed-below-saturation"; exact "cache-relieves-shedding";
                  exact "determinism" ]
  @@ fun x ->
  header "E18  Open-loop workload vs overload protection (rate x shards x cache)"
    "under open-loop Poisson arrivals past saturation, the bounded admission \
     queue sheds the excess (pep_shed_total > 0) while p99 latency of admitted \
     requests stays bounded; below saturation nothing is shed; the L1 decision \
     cache relieves shedding at the same offered rate; and the whole report is \
     byte-identical across same-seed runs";
  let module W = Dacs_workload.Workload in
  let scenario ~rate ~shards ~cache_ttl =
    {
      W.default with
      W.seed = 7;
      shards;
      cache_ttl;
      arrivals = W.Open_loop { rate };
      duration = 4.0;
    }
  in
  Printf.printf "%-28s %8s %8s %8s %6s %9s %8s %9s %9s\n" "configuration" "offered" "granted"
    "shed" "pdp-ov" "req/s" "p50 (s)" "p99 (s)" "max (s)";
  let rows =
    List.concat_map
      (fun rate ->
        List.concat_map
          (fun shards ->
            List.map
              (fun cache_ttl ->
                let r = W.run (scenario ~rate ~shards ~cache_ttl) in
                let label =
                  Printf.sprintf "%4.0f req/s %d shard%s %s" rate shards
                    (if shards = 1 then " " else "s")
                    (if cache_ttl > 0.0 then "cache" else "no-cache")
                in
                Printf.printf "%-28s %8d %8d %8d %6d %9.1f %8.4f %9.4f %9.4f\n" label r.W.offered
                  r.W.granted r.W.shed r.W.pdp_overloads r.W.throughput r.W.latency.W.p50
                  r.W.latency.W.p99 r.W.latency.W.max;
                ((rate, shards, cache_ttl), r))
              [ 0.0; 30.0 ])
          [ 1; 4 ])
      [ 100.0; 400.0; 1600.0 ]
  in
  let get rate shards cache_ttl = List.assoc (rate, shards, cache_ttl) rows in
  let check = Experiment.check x in
  (* Every row must conserve requests regardless of load. *)
  let conserved = List.for_all (fun (_, r) -> W.conservation_ok r) rows in
  print_newline ();
  check "conservation"
    conserved
    (Printf.sprintf "%d configurations, completed = offered and answers sum up in each" (List.length rows));
  let saturated = get 1600.0 1 0.0 in
  check "shedding-engages" (saturated.W.shed > 0)
    (Printf.sprintf "1600 req/s on 1 shard no-cache sheds %d of %d" saturated.W.shed
       saturated.W.offered);
  let worst_p99 =
    List.fold_left (fun acc (_, r) -> Float.max acc r.W.latency.W.p99) 0.0 rows
  in
  check "p99-bounded" (worst_p99 <= 2.0)
    (Printf.sprintf "worst admitted p99 %.4fs <= 2.0s across the grid" worst_p99);
  let light = get 100.0 4 0.0 in
  check "no-shed-below-saturation"
    (light.W.shed = 0 && light.W.pdp_overloads = 0)
    (Printf.sprintf "100 req/s on 4 shards sheds %d, overloads %d" light.W.shed
       light.W.pdp_overloads);
  let cached = get 1600.0 1 30.0 in
  check "cache-relieves-shedding"
    (cached.W.shed < saturated.W.shed)
    (Printf.sprintf "shed %d with cache vs %d without at 1600 req/s on 1 shard" cached.W.shed
       saturated.W.shed);
  let rerun = W.run (scenario ~rate:1600.0 ~shards:1 ~cache_ttl:0.0) in
  check "determinism"
    (W.render rerun = W.render saturated)
    "same-seed saturating run renders byte-identical";
  Experiment.count x "shed_saturated_1_shard" saturated.W.shed;
  Experiment.count x "shed_saturated_cached" cached.W.shed;
  Experiment.metric x "worst_admitted_p99_s" worst_p99

(* ==================================================================== *)
(* E19 — compiled evaluation vs the interpreter reference               *)
(* ==================================================================== *)

let e19_compiled_eval =
  Experiment.v "e19"
    ~gates:Gate.[ exact "decisions-identical";
                  ratio "compiled-speedup>=5x on deep tree" ~at_least:5.0 ]
  @@ fun x ->
  header "E19  Compiled vs interpreted evaluation (target-indexed dispatch, §3.1 scalability)"
    "compiling the policy tree into per-(resource, action) buckets makes \
     per-decision cost depend on the matching rules, not the store size: \
     >= 5x cheaper than the interpreter reference on a deep tree, identical \
     decisions everywhere";
  let diverged = ref [] and compared = ref 0 in
  let result_equal (a : Decision.result) (b : Decision.result) =
    Decision.equal_decision a.Decision.decision b.Decision.decision
    && a.Decision.obligations = b.Decision.obligations
  in
  (* Flat policies: one leaf, n resource-pinned rules, worst-case request. *)
  Printf.printf "%8s %16s %14s %10s %12s\n" "rules" "interpreted (us)" "compiled (us)" "speedup"
    "candidates";
  let flat_speedups =
    List.map
      (fun n ->
        let child = Policy.Inline_policy (sized_policy n) in
        let c = Dacs_policy.Compiled.compile child in
        let ctx = request_for (n - 1) in
        incr compared;
        if not (result_equal (Policy.evaluate_child ctx child) (Dacs_policy.Compiled.evaluate ctx c))
        then diverged := Printf.sprintf "flat %d rules" n :: !diverged;
        let interp = time_us (fun () -> ignore (Policy.evaluate_child ctx child)) in
        let comp = time_us (fun () -> ignore (Dacs_policy.Compiled.evaluate ctx c)) in
        Printf.printf "%8d %16.2f %14.2f %9.1fx %12d\n" n interp comp (interp /. comp)
          (Dacs_policy.Compiled.candidate_count c ctx);
        (n, interp /. comp))
      [ 10; 100; 1000; 10000 ]
  in
  (* Deep tree: a policy set fanning out to many leaves, each with many
     pinned rules — the shape where an interpreter walks everything and
     compiled dispatch touches one bucket per leaf. *)
  let policies = 16 and rules_per = 64 in
  let deep =
    Policy.Inline_set
      (Policy.make_set ~id:"deep" ~policy_combining:Combine.Deny_overrides
         (List.init policies (fun p ->
              Policy.Inline_policy
                (Policy.make
                   ~id:(Printf.sprintf "p%d" p)
                   ~rule_combining:Combine.First_applicable
                   (List.init rules_per (fun i ->
                        Rule.permit
                          ~target:
                            Target.(
                              any |> resource_is "resource-id" (Printf.sprintf "res%d-%d" p i))
                          (Printf.sprintf "r%d-%d" p i)))))))
  in
  let c = Dacs_policy.Compiled.compile deep in
  let deep_ctx =
    Context.make ~subject:(doctor_subject "alice")
      ~resource:
        [ ("resource-id", Value.String (Printf.sprintf "res%d-%d" (policies - 1) (rules_per - 1))) ]
      ~action:[ ("action-id", Value.String "read") ]
      ()
  in
  (* Equivalence over a spread of requests, including misses. *)
  List.iter
    (fun rid ->
      let ctx =
        Context.make ~subject:(doctor_subject "alice")
          ~resource:[ ("resource-id", Value.String rid) ]
          ~action:[ ("action-id", Value.String "read") ]
          ()
      in
      incr compared;
      if not (result_equal (Policy.evaluate_child ctx deep) (Dacs_policy.Compiled.evaluate ctx c))
      then diverged := Printf.sprintf "deep tree on %s" rid :: !diverged)
    [ "res0-0"; "res7-31"; "res15-63"; "nosuch" ];
  let interp = time_us (fun () -> ignore (Policy.evaluate_child deep_ctx deep)) in
  let comp = time_us (fun () -> ignore (Dacs_policy.Compiled.evaluate deep_ctx c)) in
  let deep_speedup = interp /. comp in
  Printf.printf "\ndeep tree (%d policies x %d rules, worst-case request):\n" policies rules_per;
  Printf.printf "%-28s %14.2f us\n%-28s %14.2f us  (%.1fx, %d candidates of %d rules)\n"
    "interpreted" interp "compiled" comp deep_speedup
    (Dacs_policy.Compiled.candidate_count c deep_ctx)
    (Dacs_policy.Compiled.rule_count c);
  print_newline ();
  Experiment.check x "decisions-identical" (!diverged = [])
    (if !diverged = [] then Printf.sprintf "%d requests, compiled = interpreter" !compared
     else "diverged: " ^ String.concat ", " (List.rev !diverged));
  Experiment.ratio x "compiled-speedup>=5x on deep tree" interp comp;
  List.iter
    (fun (n, s) -> Experiment.metric x (Printf.sprintf "flat_speedup_%d_rules" n) s)
    flat_speedups;
  Experiment.metric x "deep_tree_speedup" deep_speedup;
  Experiment.metric x "deep_tree_interpreted_us" interp;
  Experiment.metric x "deep_tree_compiled_us" comp

(* ==================================================================== *)
(* E20 — bench trajectory ledger + regression gate                      *)
(* ==================================================================== *)

(* The serving path's headline numbers as a committed trajectory rather
   than one-off thresholds: every run appends a ledger entry (keyed by
   $DACS_PR) to bench/history/ledger.jsonl and gates its own
   deterministic virtual-clock metrics — steady-state p99, messages per
   request, saturated shedding — against the previous entry with a
   tolerance band.  Wall-clock numbers (e19 speedups, micro) are
   recorded in the embedded snapshots but never gated: only metrics that
   are byte-identical per seed can fail a build honestly. *)

let e20_trajectory =
  Experiment.v "e20"
    ~gates:Gate.[ no_worse "p99-regression" ~key:"p99_s" ~better:`Lower;
                  no_worse "msgs-per-req-regression" ~key:"msgs_per_req" ~better:`Lower;
                  no_worse "shed-regression" ~key:"shed_saturated" ~better:`Lower ]
  @@ fun x ->
  header "E20  Bench trajectory ledger + regression gate"
    "the serving path's deterministic metrics (steady p99, messages per \
     request, saturated shedding) must not worsen beyond tolerance against \
     the previous committed ledger entry; every run appends its own entry \
     with the other gated experiments' snapshots embedded, so the \
     trajectory across PRs is reviewable history, not folklore";
  let module W = Dacs_workload.Workload in
  let steady = W.run { W.default with W.seed = 11; cache_ttl = 30.0; duration = 4.0 } in
  let saturated =
    W.run
      {
        W.default with
        W.seed = 11;
        shards = 1;
        arrivals = W.Open_loop { rate = 1600.0 };
        duration = 2.0;
      }
  in
  let p99 = steady.W.latency.W.p99 in
  let mpr = float_of_int steady.W.messages /. float_of_int steady.W.offered in
  let shed = saturated.W.shed in
  Printf.printf "this run:\n";
  Printf.printf "  %-32s %10.6f s\n" "steady-state p99 (cached, 200 req/s)" p99;
  Printf.printf "  %-32s %10.2f\n" "messages per request (steady)" mpr;
  Printf.printf "  %-32s %10d\n" "saturated shed (1600 req/s, 1 shard)" shed;
  Experiment.metric x ~digits:6 "p99_s" p99;
  Experiment.metric x "msgs_per_req" mpr;
  Experiment.count x "shed_saturated" shed;
  Experiment.append_ledger x;
  print_newline ()

(* ==================================================================== *)
(* E21 — partition -> heal ablation (offline authorization)             *)
(* ==================================================================== *)

(* Two deterministic measurements of the offline mode:

   - the workload ablation: the same partition-window scenario run with
     and without offline replicas — fail-closed errors vs signed-log
     serves;
   - the reconciliation cost: a 4-domain mesh diverges across a
     partition (concurrent grants, revocations and offline decisions),
     then heals over a ring anti-entropy topology — convergence rounds,
     replayed events, deny-wins conflicts and retroactive invalidations
     are all virtual-clock deterministic, so they gate against the
     previous ledger entry like the e20 trio. *)

let e21_offline =
  Experiment.v "e21"
    ~gates:Gate.[ exact "offline-serves-partition"; exact "post-heal-convergence";
                  exact "deny-wins"; exact "retroactive-invalidation";
                  no_worse "convergence-rounds-regression" ~key:"convergence_rounds"
                    ~better:`Lower;
                  no_worse "replayed-events-regression" ~key:"replayed_events" ~better:`Lower;
                  no_worse "rechecked-regression" ~key:"rechecked" ~better:`Lower;
                  no_worse "invalidations-regression" ~key:"retroactive_invalidations"
                    ~better:`Lower;
                  no_worse "offline-decide-words-regression" ~key:"words_per_offline_decide"
                    ~better:`Lower;
                  no_worse "heal-words-regression" ~key:"words_per_heal_event" ~better:`Lower;
                  no_worse "offline-p99-regression" ~key:"offline_p99_s" ~better:`Lower ]
  @@ fun x ->
  header "E21  Partition -> heal ablation (offline authorization)"
    "a partitioned domain serves from its signed event log instead of failing \
     closed, and heal reconverges every replica by deny-wins replay in a \
     bounded number of anti-entropy rounds — convergence rounds, replayed \
     events, retroactive invalidations and the offline arm's p99 latency \
     (how fast a silent shard is detected) are deterministic and must not \
     worsen against the previous ledger entry";
  let module W = Dacs_workload.Workload in
  let partition = Some { W.from = 1.0; until = 3.0 } in
  let closed = W.run { W.default with W.seed = 11; partition } in
  let served = W.run { W.default with W.seed = 11; partition; offline = true } in
  Printf.printf "workload ablation (partition window [1s,3s) of a %.0fs run, seed 11):\n"
    W.default.W.duration;
  Printf.printf "  %-28s %8s %8s %8s\n" "" "errors" "offline" "granted";
  Printf.printf "  %-28s %8d %8d %8d\n" "fail-closed (no replicas)" closed.W.errors
    closed.W.offline_serves closed.W.granted;
  Printf.printf "  %-28s %8d %8d %8d\n" "offline replicas" served.W.errors
    served.W.offline_serves served.W.granted;
  Printf.printf "  %-28s %8.3f s\n" "offline replicas p99" served.W.latency.W.p99;
  (* --- reconciliation: 4 domains, 2-2 partition, ring heal ------------- *)
  let module O = Offline in
  let n = 4 in
  let now = ref 0.0 in
  let tick () = now := !now +. 1.0 in
  let reps =
    Array.init n (fun i ->
        O.create ~now:(fun () -> !now) ~key:"e21-mesh-key"
          ~author:(Printf.sprintf "dom%d" i) ())
  in
  let pol =
    Policy.make ~id:"e21" ~rule_combining:Combine.First_applicable
      [
        Rule.permit ~condition:(Expr.one_of (Expr.subject_attr "role") [ "doctor" ]) "doctors";
        Rule.deny "default-deny";
      ]
  in
  let user u = Printf.sprintf "user%d" u in
  let ctx_for u =
    Context.make
      ~subject:[ ("subject-id", Value.String (user u)) ]
      ~resource:[ ("resource-id", Value.String "chart") ]
      ~action:[ ("action-id", Value.String "read") ]
      ()
  in
  (* one pull round over a connectivity relation; returns events moved *)
  let sync_round conn =
    let moved = ref 0 in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j && conn i j then
          match O.admit reps.(i) (O.missing_for reps.(j) ~frontier:(O.frontier reps.(i))) with
          | Ok k -> moved := !moved + k
          | Error e -> Printf.printf "  !! sync rejected: %s\n" (O.sync_error_to_string e)
      done
    done;
    !moved
  in
  let full _ _ = true in
  let intra i j = i < 2 = (j < 2) in
  let ring i j = j = (i + 1) mod n in
  (* shared history: policy + ten doctors, fully synced *)
  tick ();
  O.publish reps.(0) (Policy.Inline_policy pol);
  for u = 0 to 9 do
    tick ();
    O.grant reps.(0) ~subject:(user u) ~attr:"role" ~value:"doctor"
  done;
  ignore (sync_round full);
  (* partition {dom0,dom1} | {dom2,dom3}: component A grants five new
     users and keeps deciding for the old ones; component B revokes the
     old ones (and two of A's concurrent grants' subjects — the deny-wins
     races).  Intra-component anti-entropy keeps each side converged. *)
  for u = 10 to 14 do
    tick ();
    O.grant reps.(0) ~subject:(user u) ~attr:"role" ~value:"doctor"
  done;
  let offline_decides = ref 0 in
  let decide_words = ref 0.0 in
  for u = 0 to 4 do
    tick ();
    let w0 = Gc.minor_words () in
    let served = O.decide reps.(0) (ctx_for u) in
    decide_words := !decide_words +. (Gc.minor_words () -. w0);
    (match served with Some _ -> incr offline_decides | None -> ());
    tick ();
    O.revoke reps.(2) ~subject:(user u) ~attr:"role"
  done;
  tick ();
  O.revoke reps.(3) ~subject:(user 10) ~attr:"role";
  tick ();
  O.revoke reps.(3) ~subject:(user 11) ~attr:"role";
  ignore (sync_round intra);
  (* heal over the ring: count rounds until every digest is identical *)
  let converged () =
    let d0 = O.state_digest reps.(0) in
    Array.for_all (fun o -> O.state_digest o = d0) reps
  in
  let rounds = ref 0 and heal_moved = ref 0 in
  let w0 = Gc.minor_words () in
  while (not (converged ())) && !rounds < 16 do
    incr rounds;
    heal_moved := !heal_moved + sync_round ring
  done;
  let heal_words = Gc.minor_words () -. w0 in
  let words_per_decide = !decide_words /. float_of_int (max 1 !offline_decides) in
  let words_per_heal_event = heal_words /. float_of_int (max 1 !heal_moved) in
  let total f = Array.fold_left (fun acc o -> acc + f (O.stats o)) 0 reps in
  let replayed = total (fun s -> s.O.replayed_events) in
  let rechecked = total (fun s -> s.O.rechecked) in
  let invalidations = total (fun s -> s.O.invalidations) in
  let conflicts = List.length (O.conflicts reps.(0)) in
  Printf.printf "\nreconciliation (4 domains, 2-2 partition, ring anti-entropy):\n";
  Printf.printf "  %-32s %8d\n" "offline decisions under partition" !offline_decides;
  Printf.printf "  %-32s %8d\n" "convergence rounds (ring)" !rounds;
  Printf.printf "  %-32s %8d\n" "events replayed (all replicas)" replayed;
  Printf.printf "  %-32s %8d\n" "Decides re-checked (all replicas)" rechecked;
  Printf.printf "  %-32s %8d\n" "retroactive invalidations" invalidations;
  Printf.printf "  %-32s %8d\n" "deny-wins conflicts" conflicts;
  Printf.printf "  %-32s %8.1f\n" "minor words per offline decide" words_per_decide;
  Printf.printf "  %-32s %8.1f\n" "minor words per heal-moved event" words_per_heal_event;
  print_newline ();
  let check = Experiment.check x in
  check "offline-serves-partition"
    (closed.W.errors > 0 && served.W.offline_serves > 0 && served.W.errors < closed.W.errors)
    (Printf.sprintf "errors %d -> %d, %d offline serves" closed.W.errors served.W.errors
       served.W.offline_serves);
  check "post-heal-convergence" (converged ())
    (Printf.sprintf "all digests identical after %d ring rounds" !rounds);
  check "deny-wins"
    ((not (List.mem (user 10, "role", "doctor") (O.surviving_grants reps.(0))))
    && List.mem (user 12, "role", "doctor") (O.surviving_grants reps.(0)))
    "concurrent revoke defeats the offline grant; uncontested grants survive";
  check "retroactive-invalidation"
    (invalidations >= n)
    (Printf.sprintf "%d contradicted offline decisions purged" invalidations);
  Experiment.count x "fail_closed_errors" closed.W.errors;
  Experiment.count x "offline_serves" served.W.offline_serves;
  Experiment.count x "offline_errors" served.W.errors;
  Experiment.count x "offline_decides_partition" !offline_decides;
  Experiment.count x "convergence_rounds" !rounds;
  Experiment.count x "replayed_events" replayed;
  Experiment.count x "rechecked" rechecked;
  Experiment.count x "retroactive_invalidations" invalidations;
  Experiment.count x "conflicts" conflicts;
  Experiment.metric x ~digits:1 "words_per_offline_decide" words_per_decide;
  Experiment.metric x ~digits:1 "words_per_heal_event" words_per_heal_event;
  Experiment.metric x "offline_p99_s" served.W.latency.W.p99

(* ==================================================================== *)
(* E22 — million-user scale: packed keys x cache tier                   *)
(* ==================================================================== *)

(* The baseline digest the packed keys replaced: every Subject, Resource
   and Action attribute formatted, sorted, joined and SHA-256-hashed per
   request.  E22 prices key construction against it and E23 runs its
   churn corpus on it, as keys a region purge cannot read. *)
let sha_request_key ctx =
  let section category =
    List.concat_map
      (fun (id, bag) ->
        List.map
          (fun v ->
            Printf.sprintf "%s/%s=%s" (Context.category_name category) id (Value.describe v))
          bag)
      (Context.attributes ctx category)
  in
  let parts = section Context.Subject @ section Context.Resource @ section Context.Action in
  Dacs_crypto.Sha256.hex_digest (String.concat "|" (List.sort compare parts))

(* The serving-path scale check behind the interned-identity rework,
   measured three ways —

   - key construction alone, packed keys against the sorted-string +
     SHA-256 baseline digest (the per-request cost the swap removed);
   - a warm L1 under a 1M-user Zipf draw: every warm decide must answer
     synchronously, and the resident packed keys
     ({!Decision_cache.key_bytes}) must take at most half the bytes the
     baseline digests of the same working set would;
   - a full engine run at 1M users: reports byte-identical per seed,
     and the lazy workload state must stay O(active). *)

let e22_scale =
  Experiment.v "e22"
    ~gates:Gate.[ ratio "key-build-speedup" ~at_least:2.0; exact "warm-decides-synchronous";
                  exact "resident-key-bytes"; exact "o-active-state"; exact "determinism";
                  exact "conservation" ]
  @@ fun x ->
  header "E22  Million-user serving path (packed keys x cache tier)"
    "interning identities and packing cache keys as integer tuples builds \
     keys >= 2x faster than the sorted-string + SHA-256 scheme and at least \
     halves resident key bytes at a 1M-user Zipf working set, whose warm \
     decides all answer from L1; the workload engine completes 1M-user runs \
     materialising state only for active users";
  let module W = Dacs_workload.Workload in
  let check = Experiment.check x in
  (* -- part 1: key construction ------------------------------------- *)
  (* The e17 attribute shape: identity plus the role/clearance/department
     triple a PIP would have resolved, over a 16-resource estate. *)
  let ctx_for u =
    Context.make
      ~subject:
        [
          ("subject-id", Value.String (Printf.sprintf "user%d" u));
          ("role", Value.String "doctor");
          ("clearance", Value.String "secret");
          ("department", Value.String (Printf.sprintf "dept%d" (u mod 8)));
        ]
      ~resource:
        [
          ("resource-id", Value.String (Printf.sprintf "res%d" (u mod 16)));
          ("owner", Value.String (Printf.sprintf "dept%d" (u mod 8)));
        ]
      ~action:[ ("action-id", Value.String "read") ]
      ()
  in
  let key_ctxs = Array.init 256 ctx_for in
  let spin = ref 0 in
  let cycle f () =
    f key_ctxs.(!spin land 255) |> ignore;
    incr spin
  in
  let sha_us = time_us (cycle sha_request_key) in
  let packed_us = time_us (cycle Intern.request_key) in
  let key_speedup = sha_us /. packed_us in
  Printf.printf "key construction (256-context cycle):\n";
  Printf.printf "  %-32s %10.3f us\n" "sha-hex (sort + format + SHA-256)" sha_us;
  Printf.printf "  %-32s %10.3f us\n" "packed (interned atom tuple)" packed_us;
  (* -- part 2: a warm L1 under a 1M-user Zipf draw ------------------- *)
  let population = 1_000_000 and draws = 120_000 and skew = 1.1 in
  (* Walker alias sampler, same construction as the workload engine's:
     O(n) setup, one uniform draw per sample. *)
  let sample_users () =
    let rng = Rng.create 0xe22L in
    let scaled = Array.init population (fun i -> 1.0 /. (float_of_int (i + 1) ** skew)) in
    let total = Array.fold_left ( +. ) 0.0 scaled in
    let norm = float_of_int population /. total in
    Array.iteri (fun i w -> scaled.(i) <- w *. norm) scaled;
    let prob = Array.make population 1.0 in
    let alias = Array.init population Fun.id in
    let small = ref [] and large = ref [] in
    for i = population - 1 downto 0 do
      if scaled.(i) < 1.0 then small := i :: !small else large := i :: !large
    done;
    let rec pair () =
      match (!small, !large) with
      | s :: ss, l :: ls ->
        prob.(s) <- scaled.(s);
        alias.(s) <- l;
        scaled.(l) <- scaled.(l) -. (1.0 -. scaled.(s));
        small := ss;
        large := ls;
        if scaled.(l) < 1.0 then small := l :: !small else large := l :: !large;
        pair ()
      | _, _ -> ()
    in
    pair ();
    Array.init draws (fun _ ->
        let u = Rng.float rng (float_of_int population) in
        let i = min (int_of_float u) (population - 1) in
        if u -. float_of_int i < prob.(i) then i else alias.(i))
  in
  let users = sample_users () in
  let distinct = Hashtbl.create 65536 in
  Array.iter (fun u -> Hashtbl.replace distinct u ()) users;
  let working_set = Hashtbl.length distinct in
  let sha_bytes =
    Hashtbl.fold (fun u () acc -> acc + String.length (sha_request_key (ctx_for u))) distinct 0
  in
  let ctxs = Array.map ctx_for users in
  let pep, cache =
    let net, services = fresh () in
    let add id = Net.add_node net id; id in
    ignore
      (Pdp_service.create services ~node:(add "pdp") ~name:"pdp"
         ~root:
           (Policy.Inline_policy
              (Policy.make ~id:"e22" ~rule_combining:Combine.First_applicable
                 [ Rule.permit ~target:Target.(any |> subject_is "role" "doctor") "permit-doctor";
                   Rule.deny "default-deny" ]))
         ());
    let cache = Decision_cache.create ~max_entries:(1 lsl 18) ~ttl:3600.0 () in
    let pep =
      Pep.create services ~node:(add "pep") ~domain:"d" ~resource:"r" ~content:"c"
        (Pep.Pull { pdps = [ "pdp" ]; cache = Some cache; call_timeout = 5.0 })
    in
    (* Warm: every draw descends once; single-flight coalesces the
       duplicates, Net.run settles the misses, and from then on every
       lookup is a synchronous L1 hit. *)
    Array.iter (fun ctx -> Pep.decide pep ctx (fun _ -> ())) ctxs;
    Net.run net;
    (pep, cache)
  in
  let answered = ref 0 in
  Array.iter (fun ctx -> Pep.decide pep ctx (fun _ -> incr answered)) ctxs;
  let packed_bytes = Decision_cache.key_bytes cache and entries = Decision_cache.size cache in
  let st = Intern.stats Intern.global in
  Printf.printf "\nwarm L1, %d draws over %d-user Zipf(%.1f) (%d distinct):\n" draws population
    skew working_set;
  Printf.printf "  %-24s %14s %12s\n" "keys" "resident keys" "key bytes";
  Printf.printf "  %-24s %14d %12d\n" "packed (resident)" entries packed_bytes;
  Printf.printf "  %-24s %14d %12d\n" "sha-hex (baseline digest)" working_set sha_bytes;
  Printf.printf "  intern table: %d strings, %d pairs, %d values, %d atoms\n" st.Intern.strings
    st.Intern.pairs st.Intern.values st.Intern.atoms;
  (* -- part 3: engine-level 1M-user run ------------------------------ *)
  let scenario =
    {
      W.default with
      W.seed = 7;
      users = 1_000_000;
      shards = 2;
      cache_ttl = 30.0;
      cache_capacity = 65_536;
      arrivals = W.Open_loop { rate = 400.0 };
      duration = 2.0;
    }
  in
  let run = W.run scenario in
  let rerun = W.run scenario in
  let mpr (r : W.report) = float_of_int r.W.messages /. float_of_int r.W.offered in
  Printf.printf "\n1M-user engine run (seed 7, 400 req/s, 2 shards, cached):\n";
  Printf.printf "  %8s %8s %8s %8s %9s %12s\n" "offered" "granted" "denied" "errors" "msgs/req"
    "active users";
  Printf.printf "  %8d %8d %8d %8d %9.2f %12d\n" run.W.offered run.W.granted run.W.denied
    run.W.errors (mpr run) run.W.active_users;
  print_newline ();
  Experiment.ratio x "key-build-speedup"
    ~detail:(Printf.sprintf "packed %.3f us vs sha %.3f us" packed_us sha_us)
    sha_us packed_us;
  check "warm-decides-synchronous" (!answered = draws)
    (Printf.sprintf "%d of %d warm decides answered from L1" !answered draws);
  check "resident-key-bytes"
    (entries = working_set && packed_bytes * 2 <= sha_bytes)
    (Printf.sprintf "%d bytes packed vs %d sha over %d entries (<= half)" packed_bytes sha_bytes
       entries);
  check "o-active-state"
    (run.W.active_users < 100_000 && run.W.active_users <= run.W.offered)
    (Printf.sprintf "%d of %d users materialised" run.W.active_users scenario.W.users);
  check "determinism" (W.render run = W.render rerun)
    "same-seed 1M-user report renders byte-identical";
  check "conservation" (W.conservation_ok run) "completed = offered and answers sum up";
  Experiment.metric x "key_build_speedup" key_speedup;
  Experiment.count x "packed_key_bytes" packed_bytes;
  Experiment.count x "sha_key_bytes" sha_bytes;
  Experiment.count x "working_set" working_set;
  Experiment.count x "active_users_1m" run.W.active_users;
  Experiment.metric x "msgs_per_req_1m" (mpr run)

(* ==================================================================== *)
(* E23 — policy churn: targeted region invalidation vs full flush       *)
(* ==================================================================== *)

(* Two deterministic measurements of the change-impact engine:

   - a sequential churn corpus: G policy generations over a fixed
     request population, decided through an L1 decision cache under
     three arms — targeted region invalidation (Delta.between), full
     flush, and an uncached Policy.evaluate reference.  No request is
     ever in flight across a publish, so the three decision streams
     must be byte-identical, both on packed keys and on the baseline
     digest; on packed keys the targeted arm must also retain strictly
     more warm entries (digest keys are undecodable, so targeted
     degrades to the flush there — soundness preserved, savings
     forfeited);
   - the workload ablation: the same churn schedule through the engine
     with [churn_targeted] on and off — retained cache hits and
     messages per request, gated against the previous ledger entry
     with the e20 tolerance band. *)

let e23_churn =
  Experiment.v "e23"
    ~gates:Gate.[ exact "corpus-decisions-identical"; exact "corpus-decisions-identical-sha";
                  exact "corpus-hit-retention"; exact "corpus-targeted-drops-fewer";
                  exact "sha-degrades-soundly"; exact "regions-bounded";
                  exact "workload-conservation"; exact "workload-publishes";
                  exact "workload-hit-retention"; exact "workload-msgs-per-req";
                  exact "workload-determinism";
                  no_worse "hit-ratio-regression" ~key:"churn_hit_ratio" ~better:`Higher;
                  no_worse "churn-msgs-per-req-regression" ~key:"churn_msgs_per_req"
                    ~better:`Lower;
                  no_worse "purge-words-regression" ~key:"purge_words_per_entry"
                    ~better:`Lower ]
  @@ fun x ->
  header "E23  Policy churn: targeted region invalidation vs full flush"
    "a publish's change-impact region purges only the affected cached \
     decisions: decision streams stay byte-identical to a full flush and an \
     uncached reference, while the targeted arm retains strictly more warm \
     entries and spends fewer messages per request under churn";
  let module W = Dacs_workload.Workload in
  let module D = Dacs_policy.Delta in
  let check = Experiment.check x in
  (* -- part 1: sequential churn corpus ------------------------------- *)
  let resources = 8 and generations = 12 in
  let root gen = Policy.Inline_policy (W.churned_policy ~resources ~gen) in
  let ctxs =
    List.concat_map
      (fun role ->
        List.concat_map
          (fun r ->
            List.map
              (fun act ->
                Context.make
                  ~subject:
                    [ ("subject-id", Value.String ("u-" ^ role)); ("role", Value.String role) ]
                  ~resource:[ ("resource-id", Value.String (Printf.sprintf "res%d" r)) ]
                  ~action:[ ("action-id", Value.String act) ]
                  ())
              [ "read"; "write" ])
          (List.init resources Fun.id))
      [ "doctor"; "nurse"; "admin" ]
  in
  let decide_cached key_of cache child ctx =
    let key = key_of ctx in
    match Decision_cache.get cache ~now:0.0 ~key with
    | Some r -> r
    | None ->
      let r = Policy.evaluate_child ctx child in
      Decision_cache.put cache ~now:0.0 ~key r;
      r
  in
  let max_zones = ref 0 and region_unbounded = ref false in
  (* Runs the whole corpus with [key_of] as the cache key; returns the
     three decision streams plus cache stats. *)
  let corpus key_of =
    let targeted = Decision_cache.create ~max_entries:4096 ~ttl:3600.0 () in
    let full = Decision_cache.create ~max_entries:4096 ~ttl:3600.0 () in
    let bufs = (Buffer.create 1024, Buffer.create 1024, Buffer.create 1024) in
    let t_dropped = ref 0 and f_dropped = ref 0 in
    for gen = 0 to generations do
      if gen > 0 then begin
        let region = D.between (Some (root (gen - 1))) (Some (root gen)) in
        max_zones := max !max_zones (D.zone_count region);
        if D.is_unbounded region then region_unbounded := true;
        t_dropped := !t_dropped + Decision_cache.invalidate_region targeted region;
        f_dropped := !f_dropped + Decision_cache.size full;
        Decision_cache.invalidate_all full
      end;
      List.iter
        (fun ctx ->
          let bt, bf, br = bufs in
          let record buf (r : Decision.result) =
            Buffer.add_string buf (Decision.decision_to_string r.Decision.decision);
            Buffer.add_char buf ';'
          in
          record bt (decide_cached key_of targeted (root gen) ctx);
          record bf (decide_cached key_of full (root gen) ctx);
          record br (Policy.evaluate_child ctx (root gen)))
        ctxs
    done;
    let bt, bf, br = bufs in
    ( Buffer.contents bt,
      Buffer.contents bf,
      Buffer.contents br,
      (Decision_cache.stats targeted).Decision_cache.hits,
      (Decision_cache.stats full).Decision_cache.hits,
      !t_dropped,
      !f_dropped )
  in
  let p_t, p_f, p_r, p_thits, p_fhits, p_tdrop, p_fdrop = corpus Decision_cache.request_key in
  let s_t, s_f, s_r, s_thits, s_fhits, _, _ = corpus sha_request_key in
  Printf.printf "sequential corpus (%d resources, %d publishes, %d requests/generation):\n"
    resources generations (List.length ctxs);
  Printf.printf "  %-10s %14s %14s %14s %14s\n" "keys" "targeted hits" "flush hits"
    "targeted drops" "flush drops";
  Printf.printf "  %-10s %14d %14d %14d %14d\n" "packed" p_thits p_fhits p_tdrop p_fdrop;
  Printf.printf "  %-10s %14d %14d %14s %14s\n" "sha-hex" s_thits s_fhits "(degrades)" "";
  print_newline ();
  check "corpus-decisions-identical"
    (p_t = p_f && p_f = p_r)
    "targeted = full-flush = uncached reference, byte-identical streams (packed)";
  check "corpus-decisions-identical-sha"
    (s_t = s_f && s_f = s_r)
    "the same three streams keyed by the bench-local digest";
  check "corpus-hit-retention" (p_thits > p_fhits)
    (Printf.sprintf "%d targeted hits > %d flush hits (packed)" p_thits p_fhits);
  check "corpus-targeted-drops-fewer" (p_tdrop < p_fdrop)
    (Printf.sprintf "%d targeted drops < %d flush drops" p_tdrop p_fdrop);
  check "sha-degrades-soundly" (s_thits >= s_fhits)
    (Printf.sprintf "%d vs %d hits: undecodable keys drop conservatively" s_thits s_fhits);
  check "regions-bounded"
    ((not !region_unbounded) && !max_zones <= 4)
    (Printf.sprintf "every consecutive-generation region bounded, max %d zones" !max_zones);
  (* -- purge cost: one consecutive-generation purge of a warm L1 ------- *)
  let purge_entries = 4096 in
  let purged, purge_words =
    let warm = Decision_cache.create ~max_entries:purge_entries ~ttl:3600.0 () in
    let roles = [| "doctor"; "nurse"; "admin" |] in
    for i = 0 to purge_entries - 1 do
      let ctx =
        Context.make
          ~subject:
            [
              ("subject-id", Value.String (Printf.sprintf "purge-%d" i));
              ("role", Value.String roles.(i mod 3));
            ]
          ~resource:[ ("resource-id", Value.String (Printf.sprintf "res%d" (i / 3 mod resources))) ]
          ~action:[ ("action-id", Value.String (if i / 24 mod 2 = 0 then "read" else "write")) ]
          ()
      in
      Decision_cache.put warm ~now:0.0 ~key:(Decision_cache.request_key ctx) Decision.permit
    done;
    let region = D.between (Some (root 1)) (Some (root 2)) in
    let before = Gc.minor_words () in
    let purged = Decision_cache.invalidate_region warm region in
    (purged, Gc.minor_words () -. before)
  in
  Printf.printf
    "purge cost: one publish's region over a warm %d-entry L1 dropped %d entries \
     in %.0f minor words (%.3f per entry)\n"
    purge_entries purged purge_words
    (purge_words /. float_of_int purge_entries);
  (* -- part 2: workload ablation -------------------------------------- *)
  let scenario targeted =
    {
      W.default with
      W.seed = 11;
      cache_ttl = 30.0;
      duration = 4.0;
      churn = Some { W.churn_period = 0.5; churn_targeted = targeted };
    }
  in
  let targeted_run = W.run (scenario true) in
  let targeted_rerun = W.run (scenario true) in
  let full_run = W.run (scenario false) in
  let mpr (r : W.report) = float_of_int r.W.messages /. float_of_int r.W.offered in
  Printf.printf "\nworkload ablation (seed 11, publish every 0.5s of a 4s cached run):\n";
  Printf.printf "  %-14s %10s %10s %9s %9s %8s\n" "arm" "cache hits" "publishes" "granted"
    "denied" "msgs/req";
  List.iter
    (fun (label, (r : W.report)) ->
      Printf.printf "  %-14s %10d %10d %9d %9d %8.2f\n" label r.W.cache_hits r.W.publishes
        r.W.granted r.W.denied (mpr r))
    [ ("full-flush", full_run); ("targeted", targeted_run) ];
  print_newline ();
  check "workload-conservation"
    (W.conservation_ok targeted_run && W.conservation_ok full_run)
    "completed = offered and answers sum up under both arms";
  check "workload-publishes"
    (targeted_run.W.publishes = full_run.W.publishes && targeted_run.W.publishes > 0)
    (Printf.sprintf "%d generations installed in both arms" targeted_run.W.publishes);
  check "workload-hit-retention"
    (targeted_run.W.cache_hits > full_run.W.cache_hits)
    (Printf.sprintf "%d targeted hits > %d full-flush hits" targeted_run.W.cache_hits
       full_run.W.cache_hits);
  check "workload-msgs-per-req"
    (mpr targeted_run < mpr full_run)
    (Printf.sprintf "%.2f targeted < %.2f full-flush" (mpr targeted_run) (mpr full_run));
  check "workload-determinism"
    (W.render targeted_run = W.render targeted_rerun)
    "same-seed churn report renders byte-identical";
  Experiment.count x "seq_targeted_hits" p_thits;
  Experiment.count x "seq_full_hits" p_fhits;
  Experiment.count x "seq_targeted_drops" p_tdrop;
  Experiment.count x "seq_full_drops" p_fdrop;
  Experiment.count x "max_region_zones" !max_zones;
  Experiment.count x "targeted_cache_hits" targeted_run.W.cache_hits;
  Experiment.count x "full_cache_hits" full_run.W.cache_hits;
  Experiment.metric x "churn_hit_ratio"
    (float_of_int targeted_run.W.cache_hits /. float_of_int (max 1 full_run.W.cache_hits));
  Experiment.metric x "churn_msgs_per_req" (mpr targeted_run);
  Experiment.metric x "full_msgs_per_req" (mpr full_run);
  Experiment.count x "publishes" targeted_run.W.publishes;
  Experiment.count x "purge_dropped" purged;
  Experiment.metric x "purge_words_per_entry" (purge_words /. float_of_int purge_entries)

(* ==================================================================== *)
(* Micro-benchmarks (Bechamel)                                          *)
(* ==================================================================== *)

let micro () =
  header "MICRO  CPU micro-benchmarks (Bechamel, monotonic clock)"
    "absolute costs of the primitives: hashing, signatures, XML, evaluation";
  let open Bechamel in
  let kilobyte = String.make 1024 'x' in
  let keys = Rsa.generate (Rng.create 5L) ~bits:512 in
  let signature = Rsa.sign keys.Rsa.private_ "msg" in
  let policy100 = sized_policy 100 in
  let policy_xml = Dacs_policy.Xacml_xml.child_to_string (Policy.Inline_policy policy100) in
  let ctx = request_for 99 in
  let query_envelope = Soap.envelope (Wire.authz_query ctx) in
  let query_xml = Xml.to_string query_envelope in
  let pa =
    Policy.make ~id:"pa" ~issuer:"a"
      (List.init 20 (fun i ->
           Rule.permit ~target:(Target.for_resource (string_of_int (i mod 5))) (Printf.sprintf "p%d" i)))
  in
  let pb =
    Policy.make ~id:"pb" ~issuer:"b"
      (List.init 20 (fun i ->
           Rule.deny ~target:(Target.for_resource (string_of_int (i mod 5))) (Printf.sprintf "d%d" i)))
  in
  let tests =
    [
      Test.make ~name:"sha256 (1 KiB)" (Staged.stage (fun () -> Dacs_crypto.Sha256.digest kilobyte));
      Test.make ~name:"hmac-sha256 (1 KiB)"
        (Staged.stage (fun () -> Dacs_crypto.Hmac.sha256 ~key:"k" kilobyte));
      Test.make ~name:"rsa-512 sign" (Staged.stage (fun () -> Rsa.sign keys.Rsa.private_ "msg"));
      Test.make ~name:"rsa-512 verify"
        (Staged.stage (fun () -> Rsa.verify keys.Rsa.public "msg" ~signature));
      Test.make ~name:"xml parse (100-rule policy)" (Staged.stage (fun () -> Xml.of_string policy_xml));
      Test.make ~name:"xml parse (authz-query envelope)" (Staged.stage (fun () -> Xml.of_string query_xml));
      Test.make ~name:"xml print (authz-query envelope)" (Staged.stage (fun () -> Xml.to_string query_envelope));
      Test.make ~name:"policy eval (100 rules)" (Staged.stage (fun () -> Policy.evaluate ctx policy100));
      Test.make ~name:"conflict scan (20x20 rules)" (Staged.stage (fun () -> Conflict.find_between pa pb));
    ]
  in
  let test = Test.make_grouped ~name:"dacs" tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg instances test in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let results = Analyze.merge ols instances results in
  Printf.printf "%-36s %16s\n" "benchmark" "ns/run";
  match Hashtbl.find_opt results (Measure.label Toolkit.Instance.monotonic_clock) with
  | None -> print_endline "no results"
  | Some by_name ->
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) by_name []
    |> List.sort compare
    |> List.iter (fun (name, ols) ->
           match Analyze.OLS.estimates ols with
           | Some (est :: _) -> Printf.printf "%-36s %16.1f\n" name est
           | _ -> Printf.printf "%-36s %16s\n" name "n/a")

(* ==================================================================== *)

let () =
  let plain name f = Experiment.v name (fun _ -> f ()) in
  Experiment.main
    [
      plain "e1" e1_vo_baseline;
      plain "e2" e2_push_vs_pull;
      plain "e3" e3_xacml_eval;
      plain "e4" e4_caching;
      plain "e5" e5_syndication;
      plain "e6" e6_message_size;
      plain "e7" e7_conflicts;
      plain "e8" e8_dependability;
      plain "e9" e9_negotiation;
      plain "e10" e10_delegation;
      plain "e11" e11_rbac_scale;
      plain "e12" e12_discovery_ablation;
      plain "e14" e14_resilience;
      plain "e15" e15_telemetry;
      e16_sharded_tier;
      e17_cache_hierarchy;
      e18_workload;
      e19_compiled_eval;
      e21_offline;
      e22_scale;
      e23_churn;
      e20_trajectory;
      plain "micro" micro;
    ]
