(* The paper reproductions and their ablations, E1-E15: one table per
   figure or section-3 claim of the paper, printed for EXPERIMENTS.md.
   None declares a gate. *)

open Dacs_core
open Common

(* The breaker of an ablation arm that names none: it never trips. *)
let never_trips = { Rpc.failure_threshold = max_int; cooldown = 0.0 }

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
             (Pep.Sharded
                { tier = Pdp_tier.ordered services ~node:"pep" ~pdps:[ "pdp" ] ~call_timeout:1.0; cache }));
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
          (Pep.Sharded
             {
               tier =
                 Pdp_tier.ordered services ~node:pep_node
                   ~pdps:[ Pdp_service.node (Domain.pdp domain) ]
                   ~call_timeout:1.0;
               cache;
             })
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
         (Pep.Sharded
            { tier = Pdp_tier.ordered services ~node:"pep" ~pdps:[ "pdp" ] ~call_timeout:2.0; cache = None }));
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
        (Pep.Sharded
           { tier = Pdp_tier.ordered services ~node:"pep" ~pdps:nodes ~call_timeout:0.4; cache = None })
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
            if i = 0 then Negotiation.unprotected "c0"
            else Negotiation.protected_by (Printf.sprintf "c%d" i) [ Printf.sprintf "s%d" i ])
      in
      let server =
        Negotiation_service.create services ~node:"traust" ~issuer:"traust" ~keypair:keys
          ~credentials:
            (List.init depth (fun i ->
                 Negotiation.protected_by
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
    (* Failover against discovery alone: both arms give the bus a breaker
       that never trips, where the default one would skip the dead
       replica too. *)
    Rpc.set_breaker (Service.rpc services) never_trips;
    let policy = doctor_read_policy "ws" in
    List.iter (Net.add_node net) [ "registry"; "pep"; "c" ];
    let replicas =
      List.init 3 (fun i ->
          let node = Printf.sprintf "pdp%d" i in
          Net.add_node net node;
          ignore (Pdp_service.create services ~node ~name:node ~root:policy ());
          node)
    in
    let tier = Pdp_tier.ordered services ~node:"pep" ~pdps:replicas ~call_timeout:0.4 in
    let pep = Pep.create services ~node:"pep" ~domain:"d" ~resource:"ws" (Pep.Sharded { tier; cache = None }) in
    if use_discovery then begin
      let reg = Discovery.create services ~node:"registry" ~lease () in
      List.iter (fun node -> Discovery.advertise reg ~services ~node ~kind:"pdp" ()) replicas;
      Discovery.auto_rebind reg ~node:"pep" ~tier ~kind:"pdp" ~period:(lease /. 2.0) ()
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
    let tier = Pdp_tier.ordered services ~node:"pep" ~pdps:replicas ~call_timeout:0.4 in
    let pep =
      Pep.create services ~node:"pep" ~domain:"d" ~resource:"ws" ~content:"x"
        (Pep.Sharded { tier; cache = Some cache })
    in
    let retry_policy =
      { Rpc.attempts = 3; base_delay = 0.2; multiplier = 2.0; max_delay = 1.0; jitter = 0.1 }
    in
    (* Retry on every lossy leg: client->PEP and PEP->PDP. *)
    let client_retry = if retry then Some retry_policy else None in
    if retry then Pdp_tier.set_retry_policy tier retry_policy;
    (* A bus starts with the default breaker: the arms without one get a
       breaker that never trips. *)
    Rpc.set_breaker rpc (if breaker then { Rpc.failure_threshold = 4; cooldown = 3.0 } else never_trips);
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
    let rpc = Rpc.create net in
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
