(* The `peace` command-line tool.

   Exposes the group-signature primitive for file-based experimentation
   (gen-params, setup, issue, sign, verify, revoke, audit) and the WMN
   simulation scenarios (simulate). *)

open Cmdliner
open Peace_bigint
open Peace_pairing
open Peace_groupsig

let read_file path =
  match open_in_bin path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  | exception Sys_error reason ->
    prerr_endline ("error: " ^ reason);
    exit 1

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let or_die = function
  | Ok v -> v
  | Error reason ->
    prerr_endline ("error: " ^ reason);
    exit 1

let hex_decode hex =
  let hex = String.trim hex in
  if String.length hex mod 2 <> 0 then Error "odd-length hex"
  else Option.to_result ~none:"bad hex" (Peace_hash.Sha256.of_hex hex)

let os_entropy =
  (* seed a DRBG from /dev/urandom once per process *)
  lazy
    (let seed =
       try
         let ic = open_in_bin "/dev/urandom" in
         Fun.protect
           ~finally:(fun () -> close_in ic)
           (fun () -> really_input_string ic 48)
       with _ -> Printf.sprintf "fallback-%f-%d" (Unix.gettimeofday ()) (Unix.getpid ())
     in
     Peace_hash.Drbg.create ~seed ())

let fresh_rng () = Peace_hash.Drbg.bytes_fn (Lazy.force os_entropy)

let load_params = function
  | "tiny" -> Lazy.force Params.tiny
  | "light" -> Lazy.force Params.light
  | path -> or_die (Params.of_text (read_file path))

(* --- span consumers ---

   Every span output of a command is a Trace collector paired with a
   finaliser: --trace (and simulate's --timeline) write span JSONL,
   --profile-out renders Chrome trace-event JSON or folded stacks, stats
   --profile prints a call tree. [with_spans] installs a command's
   consumers as the one collector and runs their finalisers once the body
   is done. *)

let with_spans consumers f =
  match List.filter_map Fun.id consumers with
  | [] -> f ()
  | cs ->
    Peace_obs.Trace.set_collector
      (Some (fun ev -> List.iter (fun (feed, _) -> feed ev) cs));
    Fun.protect
      ~finally:(fun () ->
        Peace_obs.Trace.set_collector None;
        List.iter (fun (_, close) -> close ()) cs)
      f

(* one JSON object per line, flushed as written: a trace is read while
   its process runs, or after it is killed. [after] appends trailing
   lines once the spans are done. *)
let jsonl_file ~after path =
  let oc = open_out path in
  let write line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  ( Peace_obs.Expo.jsonl_to write,
    fun () ->
      after write;
      close_out oc )

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a span trace (one JSON object per line) to $(docv).")

let trace_file = Option.map (jsonl_file ~after:ignore)

(* --profile-out FILE: render the span stream by file extension — .json
   gets Chrome trace-event JSON (open in Perfetto or chrome://tracing),
   anything else gets folded stacks for flamegraph.pl or speedscope *)

let profile_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-out" ] ~docv:"FILE"
        ~doc:
          "Profile the run and write $(docv): Chrome trace-event JSON when \
           $(docv) ends in .json (Perfetto-loadable), folded stacks \
           (flamegraph.pl / speedscope) otherwise.")

let profile_file =
  Option.map (fun path ->
      if Filename.check_suffix path ".json" then
        let r = Peace_obs.Expo.recorder () in
        ( Peace_obs.Expo.record r,
          fun () ->
            write_file path (Peace_obs.Expo.chrome (Peace_obs.Expo.events r)) )
      else
        let prof = Peace_obs.Profile.create () in
        ( Peace_obs.Profile.collector prof,
          fun () -> write_file path (Peace_obs.Expo.folded prof) ))

(* --- gen-params --- *)

let gen_params qbits pbits name output =
  let params = Params.generate (fresh_rng ()) ~qbits ~pbits ~name in
  or_die (Params.validate params);
  let text = Params.to_text params in
  (match output with Some path -> write_file path text | None -> print_string text);
  Printf.eprintf "generated %s: q %d bits, p %d bits\n" name
    (Bigint.num_bits params.Params.q)
    (Bigint.num_bits params.Params.p)

let gen_params_cmd =
  let qbits = Arg.(value & opt int 80 & info [ "q"; "qbits" ] ~doc:"Subgroup order bits.") in
  let pbits = Arg.(value & opt int 120 & info [ "p"; "pbits" ] ~doc:"Field order bits.") in
  let pname = Arg.(value & opt string "custom" & info [ "name" ] ~doc:"Parameter set name.") in
  let output = Arg.(value & opt (some string) None & info [ "o"; "output" ] ~doc:"Output file.") in
  Cmd.v
    (Cmd.info "gen-params" ~doc:"Generate fresh type-A pairing parameters")
    Term.(const gen_params $ qbits $ pbits $ pname $ output)

(* --- setup --- *)

let setup params_src fixed_bases issuer_out gpk_out =
  let params = load_params params_src in
  let base_mode = if fixed_bases then Group_sig.Fixed_bases else Group_sig.Per_message in
  let issuer = Group_sig.setup ~base_mode params (fresh_rng ()) in
  write_file issuer_out (Group_sig.issuer_to_text issuer);
  write_file gpk_out (Group_sig.gpk_to_text issuer.Group_sig.gpk);
  Printf.eprintf "wrote issuer state to %s (KEEP SECRET) and gpk to %s\n" issuer_out gpk_out

let params_arg =
  Arg.(
    value
    & opt string "tiny"
    & info [ "params" ] ~doc:"Pairing parameters: 'tiny', 'light', or a file path.")

let setup_cmd =
  let fixed = Arg.(value & flag & info [ "fixed-bases" ] ~doc:"Enable the fast revocation-check mode.") in
  let issuer_out = Arg.(value & opt string "issuer.peace" & info [ "issuer-out" ] ~doc:"Issuer (secret) output file.") in
  let gpk_out = Arg.(value & opt string "gpk.peace" & info [ "gpk-out" ] ~doc:"Group public key output file.") in
  Cmd.v
    (Cmd.info "setup" ~doc:"Create a group: master secret and public key")
    Term.(const setup $ params_arg $ fixed $ issuer_out $ gpk_out)

(* --- issue --- *)

let issue issuer_path grp key_out =
  let issuer = or_die (Group_sig.issuer_of_text (read_file issuer_path)) in
  let gsk = Group_sig.issue issuer ~grp:(Bigint.of_int grp) (fresh_rng ()) in
  write_file key_out (Group_sig.gsk_to_text issuer.Group_sig.gpk gsk);
  Printf.eprintf "issued key for user group %d -> %s\n" grp key_out;
  Printf.eprintf "revocation token: %s"
    (Group_sig.token_to_text issuer.Group_sig.gpk (Group_sig.token_of_gsk gsk))

let issue_cmd =
  let issuer = Arg.(value & opt string "issuer.peace" & info [ "issuer" ] ~doc:"Issuer file.") in
  let grp = Arg.(value & opt int 1 & info [ "grp"; "group" ] ~doc:"User-group id.") in
  let out = Arg.(value & opt string "member.key" & info [ "o"; "output" ] ~doc:"Key output file.") in
  Cmd.v
    (Cmd.info "issue" ~doc:"Issue a member private key (SDH tuple)")
    Term.(const issue $ issuer $ grp $ out)

(* --- sign --- *)

let sign trace profile_out gpk_path key_path message =
  with_spans [ trace_file trace; profile_file profile_out ] @@ fun () ->
  let gpk = or_die (Group_sig.gpk_of_text (read_file gpk_path)) in
  let gsk = or_die (Group_sig.gsk_of_text gpk (read_file key_path)) in
  let signature = Group_sig.sign gpk gsk ~rng:(fresh_rng ()) ~msg:message in
  print_endline (Peace_hash.Sha256.to_hex (Group_sig.signature_to_bytes gpk signature))

let message_arg =
  Arg.(required & opt (some string) None & info [ "m"; "message" ] ~doc:"Message to sign/verify.")

let gpk_arg = Arg.(value & opt string "gpk.peace" & info [ "gpk" ] ~doc:"Group public key file.")

let sign_cmd =
  let key = Arg.(value & opt string "member.key" & info [ "key" ] ~doc:"Member key file.") in
  Cmd.v
    (Cmd.info "sign" ~doc:"Produce an anonymous group signature (hex on stdout)")
    Term.(const sign $ trace_arg $ profile_out_arg $ gpk_arg $ key $ message_arg)

(* --- verify --- *)

let verify trace profile_out gpk_path message sig_hex url_path =
  (* the verdict exits through a return code so the span consumers'
     finalisers (Fun.protect, which [exit] would bypass) still run *)
  let code =
    with_spans [ trace_file trace; profile_file profile_out ] @@ fun () ->
    let gpk = or_die (Group_sig.gpk_of_text (read_file gpk_path)) in
    let sig_bytes = or_die (hex_decode sig_hex) in
    match Group_sig.signature_of_bytes gpk sig_bytes with
    | None ->
      prerr_endline "error: malformed signature";
      1
    | Some signature ->
      let url =
        match url_path with
        | None -> []
        | Some path ->
          read_file path |> String.trim |> String.split_on_char '\n'
          |> List.filter (fun l -> String.trim l <> "")
          |> List.map (fun line -> or_die (Group_sig.token_of_text gpk line))
      in
      let result = Group_sig.verify gpk ~url ~msg:message signature in
      Format.printf "%a@." Group_sig.pp_verify_result result;
      if result <> Group_sig.Valid then 1 else 0
  in
  if code <> 0 then exit code

let verify_cmd =
  let sig_hex = Arg.(required & opt (some string) None & info [ "s"; "signature" ] ~doc:"Signature (hex).") in
  let url = Arg.(value & opt (some string) None & info [ "url" ] ~doc:"Revocation list file (one token per line).") in
  Cmd.v
    (Cmd.info "verify" ~doc:"Verify a group signature against an optional URL")
    Term.(
      const verify $ trace_arg $ profile_out_arg $ gpk_arg $ message_arg
      $ sig_hex $ url)

(* --- audit --- *)

let audit gpk_path message sig_hex grt_path =
  let gpk = or_die (Group_sig.gpk_of_text (read_file gpk_path)) in
  let sig_bytes = or_die (hex_decode sig_hex) in
  match Group_sig.signature_of_bytes gpk sig_bytes with
  | None ->
    prerr_endline "error: malformed signature";
    exit 1
  | Some signature ->
    let grt =
      read_file grt_path |> String.trim |> String.split_on_char '\n'
      |> List.filter_map (fun line ->
             match String.index_opt line ' ' with
             | None -> None
             | Some i ->
               let token_hex = String.sub line 0 i in
               let label = String.sub line (i + 1) (String.length line - i - 1) in
               Some (or_die (Group_sig.token_of_text gpk token_hex), label))
    in
    (match Group_sig.open_signature gpk ~grt ~msg:message signature with
    | Some label -> Printf.printf "signer: %s\n" label
    | None ->
      Printf.printf "no grt entry matches (or signature invalid)\n";
      exit 1)

(* --- the audit ledger (hash chain + signed checkpoints) --- *)

let audit_verify ledger_path allow_open =
  let lines =
    read_file ledger_path |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
  in
  match
    Peace_obs.Audit.verify ~verify_sig:Peace_core.Network_operator.verify_audit_sig
      ~require_seal:(not allow_open) lines
  with
  | Ok r ->
    Printf.printf "ok: %d records, %d checkpoints (%s), head seq %d\n"
      r.Peace_obs.Audit.vr_records r.Peace_obs.Audit.vr_checkpoints
      (if r.Peace_obs.Audit.vr_signed then "signed" else "unsigned")
      r.Peace_obs.Audit.vr_last_seq
  | Error b ->
    Printf.printf "ledger INVALID at seq %d: %s\n" b.Peace_obs.Audit.br_seq
      b.Peace_obs.Audit.br_reason;
    exit 1

let audit_cmd =
  let sig_hex = Arg.(required & opt (some string) None & info [ "s"; "signature" ] ~doc:"Signature (hex).") in
  let grt = Arg.(required & opt (some string) None & info [ "grt" ] ~doc:"Token table: '<token-hex> <label>' per line.") in
  let open_term = Term.(const audit $ gpk_arg $ message_arg $ sig_hex $ grt) in
  let open_cmd =
    Cmd.v
      (Cmd.info "open"
         ~doc:"Open a signature against the operator's token table (§IV-D)")
      open_term
  in
  let verify_sub =
    let ledger =
      Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"LEDGER" ~doc:"Audit ledger file (JSONL).")
    in
    let allow_open =
      Arg.(
        value & flag
        & info [ "allow-open" ]
            ~doc:
              "Accept a ledger that does not end at a checkpoint (e.g. one \
               cut short by a crash). Without this flag a missing final \
               checkpoint — the truncation tell — fails verification.")
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Re-walk an audit ledger: dense sequence numbers, the \
            SHA-256 hash chain, and every checkpoint's ECDSA signature \
            against the genesis-embedded operator key. Exits 1 naming the \
            first bad record on any break.")
      Term.(const audit_verify $ ledger $ allow_open)
  in
  Cmd.group ~default:open_term
    (Cmd.info "audit"
       ~doc:
         "Signature opening (default) and tamper-evident ledger \
          verification")
    [ open_cmd; verify_sub ]

(* --- simulate --- *)

let parse_faults_or_exit spec =
  match Peace_sim.Faults.of_string spec with
  | Ok plan -> plan
  | Error msg ->
    Printf.eprintf "error: bad --faults spec: %s\n%s\n" msg
      Peace_sim.Faults.grammar;
    exit 1

(* a deterministic ledger signer for simulations: the keypair is derived
   from the scenario seed, so the ledger's genesis pk — and every
   checkpoint signature — is reproducible run to run *)
let sim_audit_signer seed =
  let curve = Lazy.force Peace_ec.Curves.secp160r1 in
  let rng =
    Peace_hash.Drbg.bytes_fn
      (Peace_hash.Drbg.create
         ~seed:(Printf.sprintf "peace-sim-audit-%d" seed)
         ())
  in
  let key = Peace_ec.Ecdsa.generate curve rng in
  Peace_core.Network_operator.audit_signer curve ~public:key.Peace_ec.Ecdsa.q
    ~sign:(Peace_ec.Ecdsa.sign curve ~key)

let simulate trace profile_out timeline faults_spec no_hardening invoices
    audit_path scenario seed =
  (* --timeline is one JSONL file carrying both faces of the run: span
     events stream out while the scenario runs, gauge series are appended
     once it finishes *)
  let timeline =
    Option.map (fun path -> (path, Peace_obs.Timeseries.create ())) timeline
  in
  with_spans
    [
      trace_file trace;
      profile_file profile_out;
      Option.map
        (fun (path, sampler) ->
          jsonl_file ~after:(Peace_obs.Timeseries.to_jsonl sampler) path)
        timeline;
    ]
  @@ fun () ->
  let faults =
    match faults_spec with
    | None -> Peace_sim.Faults.none
    | Some spec -> parse_faults_or_exit spec
  in
  let have_faults = not (Peace_sim.Faults.is_none faults) in
  if have_faults && scenario <> "city" && scenario <> "dos" then begin
    Printf.eprintf "error: --faults applies to the city and dos scenarios only\n";
    exit 1
  end;
  if (no_hardening || invoices || audit_path <> None) && scenario <> "city"
  then begin
    Printf.eprintf
      "error: --no-hardening/--invoices/--audit apply to the city scenario only\n";
    exit 1
  end;
  let sampler = Option.map snd timeline in
  let run () =
    let open Peace_sim in
    match scenario with
    | "attacks" ->
      let m = Scenario.attack_matrix ~seed ~attempts_per_class:5 () in
      Printf.printf "outsider:      %d/%d accepted\n" m.Scenario.am_outsider_accepted m.Scenario.am_outsider_attempts;
      Printf.printf "revoked:       %d/%d accepted\n" m.Scenario.am_revoked_accepted m.Scenario.am_revoked_attempts;
      Printf.printf "replay:        %d/%d accepted\n" m.Scenario.am_replay_accepted m.Scenario.am_replay_attempts;
      Printf.printf "rogue beacons: %d/%d accepted\n" m.Scenario.am_rogue_beacons_accepted m.Scenario.am_rogue_beacon_attempts;
      Printf.printf "legitimate:    %d/%d accepted\n" m.Scenario.am_legit_accepted m.Scenario.am_legit_attempts
    | "city" ->
      let r =
        Scenario.city_auth ~seed ?sampler ~faults
          ~hardened:(not no_hardening) ~invoices ~n_routers:4 ~n_users:20
          ~area_m:1500.0 ~range_m:600.0 ~duration_ms:60_000
          ~mean_interarrival_ms:10_000.0 ()
      in
      Printf.printf "auth: %d/%d ok, handshake %.1f ms mean, %d bytes on air\n"
        r.Scenario.cr_successes r.Scenario.cr_attempts r.Scenario.cr_handshake_mean_ms
        r.Scenario.cr_bytes_on_air;
      if invoices then begin
        (* the §IV-D billing table: group-level attribution only — no
           individual user appears on an invoice *)
        Printf.printf "%-6s %9s %9s %12s\n" "group" "sessions" "bytes"
          "duration ms";
        List.iter
          (fun (g, s, b, d) -> Printf.printf "%-6d %9d %9d %12d\n" g s b d)
          r.Scenario.cr_invoices
      end;
      if have_faults then begin
        Printf.printf "faults: %s\n"
          (String.concat ", "
             (List.map
                (fun (k, v) -> Printf.sprintf "%s %d" k v)
                r.Scenario.cr_fault_counters));
        Printf.printf
          "hardening: %d retransmissions, %d timeouts, %d failovers, \
           recovery %.1f ms mean\n"
          r.Scenario.cr_retransmissions r.Scenario.cr_timeouts
          r.Scenario.cr_failovers r.Scenario.cr_recovery_mean_ms
      end
  | "dos" ->
    let run puzzles =
      Scenario.dos_attack ~seed ~puzzles ~faults ~puzzle_difficulty:12
        ~attacker_hash_rate_per_ms:10.0 ~attack_rate_per_s:40.0
        ~legit_rate_per_s:1.0 ~duration_ms:20_000 ()
    in
    let off = run false and on = run true in
    Printf.printf "puzzles off: legit %d/%d, %d verifications\n"
      off.Scenario.dr_legit_successes off.Scenario.dr_legit_attempts
      off.Scenario.dr_expensive_verifications;
    Printf.printf "puzzles on:  legit %d/%d, %d verifications, attacker paid %d hashes\n"
      on.Scenario.dr_legit_successes on.Scenario.dr_legit_attempts
      on.Scenario.dr_expensive_verifications on.Scenario.dr_attacker_hashes
  | "phishing" ->
    let r =
      Scenario.phishing ~seed ~crl_refresh_ms:60_000 ~revoke_at_ms:123_000
        ~duration_ms:400_000 ~attempt_period_ms:5_000 ()
    in
    Printf.printf "pre-revocation: %d phished; window: %d (max %d ms); post-refresh: %d\n"
      r.Scenario.pr_accepted_before_revocation r.Scenario.pr_accepted_in_window
      r.Scenario.pr_window_ms r.Scenario.pr_accepted_after_refresh
  | "multihop" ->
    let r =
      Scenario.multihop_auth ~seed ~n_near:5 ~n_far:5 ~duration_ms:30_000 ()
    in
    Printf.printf "near (direct): %d/%d   far (via relays): %d/%d   peer handshakes: %d\n"
      r.Scenario.mh_near_successes r.Scenario.mh_near_attempts
      r.Scenario.mh_far_successes r.Scenario.mh_far_attempts
      r.Scenario.mh_peer_handshakes
  | "roaming" ->
    let r =
      Scenario.roaming ~seed ~n_routers:4 ~n_users:8 ~duration_ms:60_000
        ~move_period_ms:15_000 ()
    in
    Printf.printf "moves: %d   handoffs: %d (mean %.0f ms, %d failed)\n"
      r.Scenario.ro_moves r.Scenario.ro_handoffs r.Scenario.ro_handoff_mean_ms
      r.Scenario.ro_handoff_failures
    | other ->
      Printf.eprintf
        "unknown scenario %S (try: attacks, city, dos, phishing, multihop, roaming)\n"
        other;
      exit 2
  in
  let run () =
    match audit_path with
    | None -> run ()
    | Some path ->
      Peace_obs.Audit.with_file
        ~signer:(sim_audit_signer seed)
        ~meta:
          [ ("source", "simulate-" ^ scenario); ("seed", string_of_int seed) ]
        path
        (fun _ -> run ());
      Printf.eprintf "audit ledger -> %s\n" path
  in
  run ();
  Option.iter
    (fun (path, sampler) ->
      Printf.eprintf "timeline: %d series, %d samples -> %s\n"
        (List.length (Peace_obs.Timeseries.series sampler))
        (Peace_obs.Timeseries.sample_count sampler)
        path;
      Peace_obs.Expo.series_summary Format.err_formatter sampler)
    timeline

let simulate_cmd =
  let scenario =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO"
           ~doc:"attacks | city | dos | phishing | multihop | roaming")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic seed.") in
  let timeline =
    Arg.(
      value
      & opt (some string) None
      & info [ "timeline" ] ~docv:"FILE"
          ~doc:
            "Write a timeline to $(docv): per-handshake causal span events \
             plus gauge series sampled on simulated time, one JSON object \
             per line. Only the city scenario tracks gauges so far; spans \
             cover every scenario that threads request ids.")
  in
  let faults =
    Arg.(
      value
      & opt (some string) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:
            "Inject faults into the scenario (city and dos only). SPEC is \
             comma-separated tokens, e.g. \
             $(b,burst:0.05:0.5:0.5,dup:0.02,churn:10000:2000). Run with a \
             malformed SPEC to see the full grammar.")
  in
  let no_hardening =
    Arg.(
      value & flag
      & info [ "no-hardening" ]
          ~doc:
            "Disable handshake hardening (retransmission with backoff, \
             duplicate resends, router failover) — the pre-E15 baseline \
             behaviour. City scenario only.")
  in
  let invoices =
    Arg.(
      value & flag
      & info [ "invoices" ]
          ~doc:
            "Meter every accepted session (city only) and print the \
             per-group invoice table — sessions, bytes and modeled service \
             duration attributed through the §IV-D group audit. No \
             individual user is identified.")
  in
  let audit =
    Arg.(
      value
      & opt (some string) None
      & info [ "audit" ] ~docv:"FILE"
          ~doc:
            "Record security events (city only) to a tamper-evident audit \
             ledger at $(docv): hash-chained JSONL with checkpoints signed \
             by a seed-derived ECDSA key. Check it afterwards with \
             $(b,peace audit verify).")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a WMN simulation scenario")
    Term.(
      const simulate $ trace_arg $ profile_out_arg $ timeline $ faults
      $ no_hardening $ invoices $ audit $ scenario $ seed)

(* --- chaos --- *)

let chaos seed =
  let open Peace_sim in
  let plans =
    [
      ("none", "none");
      ("burst 20% loss", "burst:0.05:0.4:0.5:0.02");
      ("burst + churn", "burst:0.05:0.4:0.5:0.02,churn:12000:2500");
      ("dup + corrupt + reorder", "dup:0.05,corrupt:0.05,reorder:0.1:40");
    ]
  in
  (* every hardened run also carries the alert evaluator on sim time:
     the frame-loss rate rule must trip under the burst plans, the
     corruption rule under the dup+corrupt+reorder plan, and the clean
     plan must trip nothing *)
  let alert_rules =
    match
      Peace_obs.Alert.rules_of_string
        "frame-loss=rate:sim.faults.frames_lost:2:10s\n\
         corruption=rate:sim.faults.corrupted:0.5:10s\n"
    with
    | Ok rules -> rules
    | Error msg -> failwith ("chaos: internal bad alert rule: " ^ msg)
  in
  let fired = ref [] in
  Printf.printf "%-26s %-9s %7s %6s %5s %5s %11s\n" "plan" "mode" "ok/att"
    "retx" "t/o" "fail" "t-auth ms";
  List.iter
    (fun (label, spec) ->
      let faults =
        match Faults.of_string spec with
        | Ok p -> p
        | Error msg -> failwith ("chaos: internal bad spec: " ^ msg)
      in
      List.iter
        (fun hardened ->
          let r =
            Scenario.city_auth ~seed ~faults ~hardened ~n_routers:4
              ~n_users:16 ~area_m:1500.0 ~range_m:600.0 ~duration_ms:45_000
              ~mean_interarrival_ms:9_000.0
              ~alert_rules:(if hardened then alert_rules else [])
              ()
          in
          if hardened then
            fired :=
              ( label,
                List.filter_map
                  (fun (ts, name, st) ->
                    if st = Peace_obs.Alert.Firing then Some (name, ts)
                    else None)
                  r.Scenario.cr_alerts )
              :: !fired;
          Printf.printf "%-26s %-9s %3d/%-3d %6d %5d %5d %11.1f\n" label
            (if hardened then "hardened" else "baseline")
            r.Scenario.cr_successes r.Scenario.cr_attempts
            r.Scenario.cr_retransmissions r.Scenario.cr_timeouts
            r.Scenario.cr_failovers r.Scenario.cr_time_to_auth_mean_ms)
        [ true; false ])
    plans;
  (* deterministic: same seed -> same firing rules at the same sim ms *)
  Printf.printf "\nalerts tripped (hardened runs, sim ms):\n";
  List.iter
    (fun (label, firings) ->
      Printf.printf "  %-26s %s\n" label
        (if firings = [] then "-"
         else
           String.concat ", "
             (List.map (fun (name, ts) -> Printf.sprintf "%s@%d" name ts)
                firings)))
    (List.rev !fired)

let chaos_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic seed.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Sweep fault plans over the city scenario, hardened vs baseline"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Runs the city authentication scenario under a fixed set of \
              fault plans (clean, burst loss, burst loss with router churn, \
              and a duplication/corruption/reordering mix), once with the \
              hardened handshake path and once with the legacy baseline, \
              and prints a comparison table. Deterministic for a fixed \
              seed.";
         ])
    Term.(const chaos $ seed)

(* --- bench-report --- *)

(* Compares two BENCH_RESULTS.json files (the schema bench/main.ml --json
   writes) metric by metric. A metric regresses when it moves in its worse
   direction ("better" field: lower|higher) by more than the threshold. *)

module J = Peace_obs.Obs_json

let bench_report old_path new_path threshold json_out update_baseline =
  let load path =
    match J.parse (read_file path) with
    | Error e ->
      Printf.eprintf "error: %s: %s\n" path e;
      exit 2
    | Ok j -> (
      match J.member "schema" j with
      | Some (J.Num 1.0) -> j
      | _ ->
        Printf.eprintf "error: %s: unsupported or missing schema version\n"
          path;
        exit 2)
  in
  let results path j =
    match J.member "results" j with
    | Some (J.Arr rs) ->
      List.filter_map
        (fun r ->
          match (J.member "name" r, J.member "value" r) with
          | Some (J.Str name), Some (J.Num value) ->
            let field key fallback =
              match J.member key r with Some (J.Str s) -> s | _ -> fallback
            in
            Some (name, (value, field "unit" "", field "better" "lower"))
          | _ -> None)
        rs
    | _ ->
      Printf.eprintf "error: %s: no results array\n" path;
      exit 2
  in
  let rev j = match J.member "rev" j with Some (J.Str r) -> r | _ -> "?" in
  let old_j = load old_path and new_j = load new_path in
  let old_r = results old_path old_j and new_r = results new_path new_j in
  Printf.printf "bench-report: %s (%s) -> %s (%s), threshold %.1f%%\n"
    old_path (rev old_j) new_path (rev new_j) threshold;
  let regressions = ref 0 in
  let json_rows = ref [] in
  let row_json fields =
    "{" ^ String.concat "," (List.map (fun (k, v) -> J.str k ^ ":" ^ v) fields)
    ^ "}"
  in
  let num = J.num_to_string in
  List.iter
    (fun (name, (nv, unit_, better)) ->
      match List.assoc_opt name old_r with
      | None ->
        Printf.printf "  %-44s %12s %10.3f %s  added\n" name "-" nv unit_;
        json_rows :=
          row_json
            [
              ("name", J.str name);
              ("status", J.str "added");
              ("unit", J.str unit_);
              ("better", J.str better);
              ("new", num nv);
            ]
          :: !json_rows
      | Some (ov, _, _) ->
        (* delta is signed so that positive always means "worse" *)
        let worse = if better = "higher" then ov -. nv else nv -. ov in
        let pct =
          if ov <> 0.0 then 100.0 *. worse /. Float.abs ov
          else if worse = 0.0 then 0.0
          else Float.infinity *. (if worse > 0.0 then 1.0 else -1.0)
        in
        let verdict =
          if pct > threshold then begin
            incr regressions;
            "REGRESSION"
          end
          else if pct < -.threshold then "improved"
          else "ok"
        in
        Printf.printf "  %-44s %10.3f -> %10.3f %-6s %+7.1f%%  %s\n" name ov
          nv unit_
          (* 0. -. pct, not -.pct: an unchanged row prints +0.0%, not -0.0% *)
          (if better = "higher" then 0. -. pct else pct)
          verdict;
        json_rows :=
          row_json
            [
              ("name", J.str name);
              ("status", J.str "compared");
              ("unit", J.str unit_);
              ("better", J.str better);
              ("old", num ov);
              ("new", num nv);
              ( "pct_worse",
                if Float.is_finite pct then num pct else J.str "inf" );
              ("verdict", J.str verdict);
            ]
          :: !json_rows)
    new_r;
  List.iter
    (fun (name, (ov, unit_, better)) ->
      if not (List.mem_assoc name new_r) then begin
        Printf.printf "  %-44s removed\n" name;
        json_rows :=
          row_json
            [
              ("name", J.str name);
              ("status", J.str "removed");
              ("unit", J.str unit_);
              ("better", J.str better);
              ("old", num ov);
            ]
          :: !json_rows
      end)
    old_r;
  (match json_out with
  | None -> ()
  | Some path ->
    (* machine-readable twin of the table above, schema-versioned like the
       BENCH_RESULTS.json inputs, so CI can post regressions *)
    let doc =
      row_json
        [
          ("schema", "1");
          ("kind", J.str "bench-diff");
          ("old_file", J.str old_path);
          ("old_rev", J.str (rev old_j));
          ("new_file", J.str new_path);
          ("new_rev", J.str (rev new_j));
          ("threshold_pct", num threshold);
          ("regressions", string_of_int !regressions);
          ("rows", "[" ^ String.concat "," (List.rev !json_rows) ^ "]");
        ]
    in
    write_file path (doc ^ "\n"));
  if update_baseline then begin
    (* adopt the new run as the reference the next diff compares against;
       the diff above still prints, but regressions no longer fail — that
       is the point of re-baselining *)
    write_file old_path (read_file new_path);
    Printf.printf "baseline %s updated from %s\n" old_path new_path
  end;
  if !regressions > 0 then begin
    Printf.printf "%d metric(s) regressed beyond %.1f%%\n" !regressions
      threshold;
    if not update_baseline then exit 1
  end
  else print_endline "no regressions"

let bench_report_cmd =
  let old_path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD.json")
  in
  let new_path =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW.json")
  in
  let threshold =
    Arg.(
      value & opt float 5.0
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:"Regression tolerance in percent (worse-direction change).")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Also write the diff as machine-readable JSON to $(docv) \
             (schema 1: per-row status/old/new/pct_worse/verdict plus a \
             regression count) so CI can post regressions.")
  in
  let update_baseline =
    Arg.(
      value & flag
      & info [ "update-baseline" ]
          ~doc:
            "After printing the diff, overwrite $(b,OLD.json) with \
             $(b,NEW.json)'s contents and exit 0 even on regressions — the \
             one-step way to adopt a new run as the committed baseline.")
  in
  Cmd.v
    (Cmd.info "bench-report"
       ~doc:"Diff two benchmark result files and fail on regressions")
    Term.(
      const bench_report $ old_path $ new_path $ threshold $ json_out
      $ update_baseline)

(* --- stats --- *)

(* The paper's Section V-C cost analysis, checked on the real code path:
   each row performs one operation on a deterministic fixture, reads the
   pairing-layer op counters, and compares them to the paper's formula.
   Any mismatch prints MISMATCH and the command exits 1. *)

let expect ~pairings ~g1_mul ~gt_exp ~hash_to_g1 =
  { Counters.pairings; g1_mul; gt_exp; hash_to_g1 }

let stats trace profile_out profile params_src url_size =
  if url_size < 1 then begin
    prerr_endline "error: --url-size must be >= 1";
    exit 2
  end;
  let code =
    let prof =
      if profile then Some (Peace_obs.Profile.create ()) else None
    in
    with_spans
      [
        trace_file trace;
        profile_file profile_out;
        Option.map (fun p -> (Peace_obs.Profile.collector p, ignore)) prof;
      ]
    @@ fun () ->
    let params = load_params params_src in
  let rng = Peace_hash.Drbg.bytes_fn (Peace_hash.Drbg.create ~seed:"peace-stats" ()) in
  let issuer = Group_sig.setup params rng in
  let gpk = issuer.Group_sig.gpk in
  let member = Group_sig.issue issuer ~grp:(Bigint.of_int 3) rng in
  let url =
    List.init url_size (fun _ ->
        Group_sig.token_of_gsk (Group_sig.issue issuer ~grp:(Bigint.of_int 5) rng))
  in
  let msg = "stats transcript" in
  let s = Group_sig.sign gpk member ~rng ~msg in
  (* fixed-bases twin of the group for the fast revocation check *)
  let issuer_f = Group_sig.setup ~base_mode:Group_sig.Fixed_bases params rng in
  let gpk_f = issuer_f.Group_sig.gpk in
  let member_f = Group_sig.issue issuer_f ~grp:(Bigint.of_int 3) rng in
  let tokens_f n =
    List.init n (fun _ ->
        Group_sig.token_of_gsk (Group_sig.issue issuer_f ~grp:(Bigint.of_int 5) rng))
  in
  let table_small = Group_sig.build_fast_table gpk_f (tokens_f url_size) in
  let table_large = Group_sig.build_fast_table gpk_f (tokens_f (url_size + 20)) in
  let s_f = Group_sig.sign gpk_f member_f ~rng ~msg in
  Printf.printf "crypto op counts per operation (params=%s, |URL|=%d):\n"
    params.Params.name url_size;
  let failures = ref 0 in
  let row name expected f =
    Counters.reset ();
    f ();
    let got = Counters.snapshot () in
    if got <> expected then incr failures;
    Printf.printf "  %-24s pairings=%-4d exp_g1=%-4d exp_gt=%-4d hash_g1=%-4d %s\n"
      name got.Counters.pairings got.Counters.g1_mul got.Counters.gt_exp
      got.Counters.hash_to_g1
      (if got = expected then "ok"
       else
         Printf.sprintf
           "MISMATCH (paper: pairings=%d exp_g1=%d exp_gt=%d hash_g1=%d)"
           expected.Counters.pairings expected.Counters.g1_mul
           expected.Counters.gt_exp expected.Counters.hash_to_g1)
  in
  let valid r = if r <> Group_sig.Valid then failwith "fixture not Valid" in
  row "sign" (expect ~pairings:2 ~g1_mul:5 ~gt_exp:4 ~hash_to_g1:2) (fun () ->
      ignore (Group_sig.sign gpk member ~rng ~msg));
  row "verify |URL|=0" (expect ~pairings:2 ~g1_mul:8 ~gt_exp:1 ~hash_to_g1:2)
    (fun () -> valid (Group_sig.verify gpk ~msg s));
  row
    (Printf.sprintf "verify |URL|=%d" url_size)
    (expect ~pairings:(3 + url_size) ~g1_mul:8 ~gt_exp:1 ~hash_to_g1:2)
    (fun () -> valid (Group_sig.verify gpk ~url ~msg s));
  row
    (Printf.sprintf "verify_fast table=%d" (Group_sig.fast_table_size table_small))
    (expect ~pairings:4 ~g1_mul:8 ~gt_exp:1 ~hash_to_g1:0)
    (fun () -> valid (Group_sig.verify_fast gpk_f table_small ~msg s_f));
  row
    (Printf.sprintf "verify_fast table=%d" (Group_sig.fast_table_size table_large))
    (expect ~pairings:4 ~g1_mul:8 ~gt_exp:1 ~hash_to_g1:0)
    (fun () -> valid (Group_sig.verify_fast gpk_f table_large ~msg s_f));
    print_newline ();
    (match prof with
    | None -> ()
    | Some p ->
      print_endline "profile:";
      Peace_obs.Profile.report Format.std_formatter p;
      print_newline ());
    print_endline "registry:";
    Peace_obs.Expo.summary Format.std_formatter;
    if !failures > 0 then begin
      Printf.eprintf "error: %d row(s) diverge from the paper's formulas\n"
        !failures;
      1
    end
    else 0
  in
  if code <> 0 then exit code

let stats_cmd =
  let url_size =
    Arg.(
      value & opt int 4
      & info [ "url-size" ]
          ~doc:"Revocation tokens in the URL / fast-table fixture (>= 1).")
  in
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Print the span call tree with per-path counts, total/self \
             time, and attributed crypto op deltas.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Measure per-operation crypto op counts against the paper's formulas")
    Term.(
      const stats $ trace_arg $ profile_out_arg $ profile $ params_arg
      $ url_size)

(* --- serve --- *)

(* A pull-based metrics surface over the live registry: GET /metrics in
   Prometheus text exposition format, GET /healthz. --warmup runs a
   scenario first so a fresh process has per-router labeled series to
   show; --announce/--max-requests make the listener scriptable (the cram
   test scrapes one /metrics and lets the server exit). *)

let serve port warmup announce max_requests =
  (match max_requests with
  | Some n when n < 1 ->
    prerr_endline "error: --max-requests must be >= 1";
    exit 2
  | _ -> ());
  (match warmup with
  | None -> ()
  | Some "city" ->
    let r =
      Peace_sim.Scenario.city_auth ~seed:42 ~n_routers:4 ~n_users:20
        ~area_m:1500.0 ~range_m:600.0 ~duration_ms:60_000
        ~mean_interarrival_ms:10_000.0 ()
    in
    Printf.eprintf "warmup: city auth %d/%d ok\n%!"
      r.Peace_sim.Scenario.cr_successes r.Peace_sim.Scenario.cr_attempts
  | Some other ->
    Printf.eprintf "error: unknown warmup scenario %S (try: city)\n" other;
    exit 2);
  match
    Peace_obs.Serve.serve ~port ?max_requests
      ~on_listen:(fun p ->
        (match announce with
        | Some path -> write_file path (string_of_int p ^ "\n")
        | None -> ());
        Printf.eprintf
          "peace serve: listening on http://127.0.0.1:%d (GET /metrics, \
           /healthz)\n\
           %!"
          p)
      ()
  with
  | Ok () -> ()
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1

let serve_cmd =
  let port =
    Arg.(
      value & opt int 9464
      & info [ "port" ] ~docv:"N"
          ~doc:"TCP port to listen on (0 = let the kernel pick).")
  in
  let warmup =
    Arg.(
      value
      & opt (some string) None
      & info [ "warmup" ] ~docv:"SCENARIO"
          ~doc:
            "Run a scenario before listening so the registry has data \
             (currently: city).")
  in
  let announce =
    Arg.(
      value
      & opt (some string) None
      & info [ "announce" ] ~docv:"FILE"
          ~doc:
            "Write the bound port number to $(docv) once listening \
             (useful with --port 0).")
  in
  let max_requests =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-requests" ] ~docv:"N"
          ~doc:"Exit after serving $(docv) requests (default: serve forever).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Expose the live metric registry over HTTP (Prometheus text \
          exposition on /metrics, liveness on /healthz)")
    Term.(const serve $ port $ warmup $ announce $ max_requests)

(* --- serve-auth / loadgen / slo --- *)

(* The live authority and its load generator rebuild the same deployment
   from (params, testbed seed, user count): handing all three the same
   values IS the key distribution, so the flags are shared. *)

module Service = Peace_service

let addr_conv =
  let parse s =
    match Peace_sock.addr_of_string s with
    | Ok a -> Ok a
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun fmt a -> Format.pp_print_string fmt (Peace_sock.addr_to_string a))

let addr_arg ~default =
  Arg.(
    value
    & opt addr_conv default
    & info [ "addr" ] ~docv:"ADDR"
        ~doc:
          "Listen/connect address: $(b,tcp:HOST:PORT) (port 0 lets the \
           kernel pick), $(b,unix:PATH), or bare $(b,HOST:PORT).")

let testbed_seed_arg =
  Arg.(
    value
    & opt string "live-authority"
    & info [ "testbed-seed" ] ~docv:"SEED"
        ~doc:
          "Deployment seed; server and clients must agree on it (and on \
           --params / --users) to share key material.")

let users_arg =
  Arg.(
    value & opt int 4
    & info [ "users" ] ~docv:"N" ~doc:"Users enrolled in the testbed group.")

let impair_conv =
  let parse s =
    match Service.Loadgen.impairments_of_string s with
    | Ok i -> Ok i
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun fmt _ -> Format.pp_print_string fmt "<impairments>")

let impair_arg =
  Arg.(
    value
    & opt impair_conv Service.Loadgen.no_impairments
    & info [ "impair" ] ~docv:"SPEC"
        ~doc:
          "Client misbehaviour, comma-separated: $(b,jitter:MS), \
           $(b,drop:P), $(b,malformed:P), $(b,truncate:P) — e.g. \
           $(b,drop:0.05,malformed:0.1).")

let make_testbed params_src seed n_users =
  if n_users < 1 then begin
    prerr_endline "error: --users must be >= 1";
    exit 2
  end;
  Service.Testbed.make ~params:(load_params params_src) ~seed ~n_users ()

(* an --alerts / RULES source: a rules file, or "default" for the stock
   authority rules; a malformed or empty file exits 1 *)
let load_alert_rules src =
  let text =
    if src = "default" then Service.Authority.default_alert_rules
    else read_file src
  in
  match Peace_obs.Alert.rules_of_string text with
  | Error e ->
    Printf.eprintf "error: bad alert rules: %s\n%s\n" e Peace_obs.Alert.grammar;
    exit 1
  | Ok [] ->
    prerr_endline "error: no rules in the file";
    exit 1
  | Ok rules -> rules

let serve_auth trace params_src testbed_seed n_users addr workers
    beacon_period_ms announce duration audit_path metrics_port metrics_announce
    alerts_src =
  Peace_sock.ignore_sigpipe ();
  with_spans [ trace_file trace ] @@ fun () ->
  let testbed = make_testbed params_src testbed_seed n_users in
  (* --audit installs the tamper-evident ledger before the listener comes
     up, so the very first access decision is already on the chain.
     Checkpoints are signed with the operator's certificate key — the
     same NPK every user already holds verifies the ledger offline. *)
  let audit_teardown =
    match audit_path with
    | None -> fun () -> ()
    | Some path ->
      let operator =
        Peace_core.Deployment.operator testbed.Service.Testbed.tb_deployment
      in
      let curve = testbed.Service.Testbed.tb_config.Peace_core.Config.curve in
      let signer =
        Peace_core.Network_operator.(
          audit_signer curve ~public:(public_key operator)
            ~sign:(sign_audit operator))
      in
      let oc = open_out path in
      let ledger =
        Peace_obs.Audit.create ~signer
          ~sink:(fun line ->
            output_string oc line;
            output_char oc '\n';
            flush oc)
          ~meta:[ ("source", "serve-auth") ]
          ()
      in
      Peace_obs.Audit.install (Some ledger);
      Printf.eprintf "peace serve-auth: audit ledger -> %s\n%!" path;
      fun () ->
        Peace_obs.Audit.seal ledger;
        Peace_obs.Audit.install None;
        close_out oc
  in
  (* --alerts brings up the rule engine before the listener, so the very
     first reject already feeds the stream detectors. The evaluator runs
     on its own daemon domain (wall clock, two evals per second) and is
     attached behind /alerts on the metrics listener. *)
  (match alerts_src with
  | None -> ()
  | Some src ->
    let rules = load_alert_rules src in
    let t = Peace_obs.Alert.create ~audit:(audit_path <> None) rules in
    Peace_obs.Alert.install_tap t;
    Peace_obs.Serve.set_alerts_source (Some t);
    ignore
      (Domain.spawn (fun () ->
           while true do
             ignore (Peace_obs.Alert.eval t);
             Unix.sleepf 0.5
           done));
    Printf.eprintf "peace serve-auth: alert evaluator on (%d rules)\n%!"
      (List.length rules));
  let server =
    or_die
      (Service.Authority.start ~workers ~beacon_period_ms
         ~config:testbed.Service.Testbed.tb_config
         ~router:testbed.Service.Testbed.tb_router addr)
  in
  let bound = Peace_sock.addr_to_string (Service.Authority.bound_addr server) in
  (match announce with
  | Some path -> write_file path (bound ^ "\n")
  | None -> ());
  (* --metrics-port brings up the whole ops surface next to the
     authority: the HTTP listener (metrics, health, flight recorder,
     series), a runtime sampler feeding a Timeseries behind /series, and
     a sampling loop. All of it lives on daemon domains that die with
     the process — the authority's own lifecycle stays untouched. *)
  (match metrics_port with
  | None -> ()
  | Some port ->
    let sampler = Peace_obs.Timeseries.create () in
    Peace_obs.Runtime.track sampler;
    List.iter
      (fun g -> ignore (Peace_obs.Timeseries.track_gauge sampler g))
      [
        "service.connections_active";
        "service.conn_queue_depth";
        "service.workers_busy";
      ];
    Peace_obs.Serve.set_series_source (Some sampler);
    ignore
      (Domain.spawn (fun () ->
           while true do
             Peace_obs.Runtime.sample ();
             Peace_obs.Timeseries.sample sampler;
             Unix.sleepf 0.5
           done));
    ignore
      (Domain.spawn (fun () ->
           match
             Peace_obs.Serve.serve ~port
               ~on_listen:(fun p ->
                 (match metrics_announce with
                 | Some path -> write_file path (string_of_int p ^ "\n")
                 | None -> ());
                 Printf.eprintf
                   "peace serve-auth: metrics on http://127.0.0.1:%d (GET \
                    /metrics, /healthz, /flight, /series%s%s)\n\
                    %!"
                   p
                   (if audit_path <> None then ", /audit/head, /audit"
                    else "")
                   (if alerts_src <> None then ", /alerts" else ""))
               ()
           with
           | Ok () -> ()
           | Error msg -> Printf.eprintf "metrics listener: %s\n%!" msg)));
  Printf.eprintf
    "peace serve-auth: authority on %s (%d workers, %d users; ctrl-c to \
     stop)\n\
     %!"
    bound workers n_users;
  let interrupted = Atomic.make false in
  let on_signal _ = Atomic.set interrupted true in
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  let deadline =
    Option.map (fun d -> Unix.gettimeofday () +. d) duration
  in
  let expired () =
    match deadline with None -> false | Some d -> Unix.gettimeofday () >= d
  in
  while not (Atomic.get interrupted || expired ()) do
    Unix.sleepf 0.2
  done;
  Printf.eprintf "peace serve-auth: draining and shutting down\n%!";
  Service.Authority.stop server;
  audit_teardown ()

let serve_auth_cmd =
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker domains. Each serves the connections it accepted, one \
             ready request at a time, and a new connection goes to a worker \
             holding the fewest.")
  in
  let beacon_period =
    Arg.(
      value & opt int 1000
      & info [ "beacon-period-ms" ] ~docv:"MS"
          ~doc:"Beacon refresh period (the broadcast (M.1) interval).")
  in
  let announce =
    Arg.(
      value
      & opt (some string) None
      & info [ "announce" ] ~docv:"FILE"
          ~doc:
            "Write the bound address to $(docv) once listening (useful with \
             tcp port 0).")
  in
  let duration =
    Arg.(
      value
      & opt (some float) None
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Exit after $(docv) seconds (default: serve until a signal).")
  in
  let metrics_port =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~docv:"N"
          ~doc:
            "Also run the ops HTTP listener on this TCP port (0 = kernel \
             pick): /metrics, /healthz with the authority's health checks, \
             /flight, /series with runtime + service gauges sampled twice a \
             second.")
  in
  let metrics_announce =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-announce" ] ~docv:"FILE"
          ~doc:
            "Write the bound metrics port to $(docv) once listening (useful \
             with --metrics-port 0).")
  in
  let audit =
    Arg.(
      value
      & opt (some string) None
      & info [ "audit" ] ~docv:"FILE"
          ~doc:
            "Append every security event (access accept/reject, revocation \
             reissue, audits, session accounting) to a tamper-evident \
             hash-chained ledger at $(docv), with checkpoints signed by the \
             operator's certificate key. Verify offline with $(b,peace \
             audit verify); browse live via /audit on the metrics \
             listener.")
  in
  let alerts =
    Arg.(
      value
      & opt (some string) None
      & info [ "alerts" ] ~docv:"RULES"
          ~doc:
            "Run the alert rule engine over the live registry and audit \
             stream: $(docv) is a rules file (or the literal $(b,default) \
             for the stock authority rules). Rules evaluate twice a \
             second; state transitions land in the flight recorder (and \
             the --audit ledger when one is kept), and /alerts on the \
             metrics listener reports current statuses.")
  in
  Cmd.v
    (Cmd.info "serve-auth"
       ~doc:
         "Run the live PEACE authentication authority (real (M.1)/(M.2)/(M.3) \
          handshakes over TCP or Unix-domain sockets)")
    Term.(
      const serve_auth $ trace_arg $ params_arg $ testbed_seed_arg $ users_arg
      $ addr_arg ~default:(Peace_sock.Tcp ("127.0.0.1", 7464))
      $ workers $ beacon_period $ announce $ duration
      $ audit $ metrics_port $ metrics_announce $ alerts)

let concurrency_arg =
  Arg.(
    value & opt int 2
    & info [ "concurrency" ] ~docv:"N"
        ~doc:"Worker domains, one user and one connection each.")

let rate_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "rate" ] ~docv:"R"
        ~doc:
          "Open-loop Poisson arrival rate (handshakes/s). Omit for the \
           closed-loop saturation probe.")

let duration_arg =
  Arg.(
    value & opt float 2.0
    & info [ "duration" ] ~docv:"SECONDS" ~doc:"Run length.")

let lg_seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"N"
        ~doc:"Load-generator randomness (arrivals, impairments).")

let report_or_die = function
  | Error e ->
    prerr_endline ("error: " ^ e);
    exit 1
  | Ok report ->
    Service.Loadgen.print_report report;
    (* a run that never completed one handshake is a failed measurement *)
    if report.Service.Loadgen.lr_ok = 0 then exit 1

let loadgen trace params_src testbed_seed n_users addr concurrency rate duration
    impair seed timeout =
  Peace_sock.ignore_sigpipe ();
  let testbed = make_testbed params_src testbed_seed n_users in
  (* with a collector installed, every handshake emits a span tree AND
     sends its trace context over the wire, so the server's spans join it *)
  with_spans [ trace_file trace ] @@ fun () ->
  report_or_die
    (Service.Loadgen.run ~connect:addr ~testbed ~concurrency ?rate
       ~duration_s:duration ~impair ~seed ~timeout_s:timeout ())

let loadgen_cmd =
  let timeout =
    Arg.(
      value & opt float 5.0
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Per-read receive timeout.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive real PEACE handshakes against a running serve-auth and \
          report p50/p95/p99 latency, throughput, and the error breakdown")
    Term.(
      const loadgen $ trace_arg $ params_arg $ testbed_seed_arg $ users_arg
      $ addr_arg ~default:(Peace_sock.Tcp ("127.0.0.1", 7464))
      $ concurrency_arg $ rate_arg $ duration_arg $ impair_arg $ lg_seed_arg
      $ timeout)

let slo params_src n_users workers concurrency rate duration impair seed
    json_out trace_out rev =
  Peace_sock.ignore_sigpipe ();
  (* --trace-out captures BOTH sides of every handshake: client and
     server live in this one process, so one collector sees the loadgen
     root spans and the authority's remote-continued service.request
     spans, already stitched by trace id *)
  match
    with_spans [ trace_file trace_out ] (fun () ->
        Service.Slo.run ~params:(load_params params_src) ~n_users ~workers
          ~concurrency ?rate ~duration_s:duration ~impair ~seed ())
  with
  | Error e ->
    prerr_endline ("error: " ^ e);
    exit 1
  | Ok r ->
    Service.Slo.print r;
    (match json_out with
    | None -> ()
    | Some path ->
      let date =
        let t = Unix.gmtime (Unix.gettimeofday ()) in
        Printf.sprintf "%04d-%02d-%02d" (t.Unix.tm_year + 1900)
          (t.Unix.tm_mon + 1) t.Unix.tm_mday
      in
      write_file path (Service.Slo.bench_json ~rev ~date r);
      Printf.printf "\nwrote schema-1 bench JSON to %s\n" path);
    if r.Service.Slo.slo_report.Service.Loadgen.lr_ok = 0 then exit 1

let slo_cmd =
  let workers =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N" ~doc:"Server connection worker domains.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:
            "Write the results as schema-1 bench JSON (slo.throughput_rps, \
             .p50_ms, .p95_ms, .p99_ms, .ok_total, .errors_total) so two \
             runs diff with $(b,peace bench-report).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write the distributed span trace (JSONL) of the whole run: \
             client and server spans of each handshake stitch into one \
             tree via the wire trace context.")
  in
  let rev =
    Arg.(
      value & opt string "workdir"
      & info [ "rev" ] ~docv:"REV"
          ~doc:"Provenance tag recorded in the --json document.")
  in
  Cmd.v
    (Cmd.info "slo"
       ~doc:
         "Self-driving SLO probe: boot the authority on a private socket, \
          load it, and report latency percentiles plus server counters")
    Term.(
      const slo $ params_arg $ users_arg $ workers $ concurrency_arg $ rate_arg
      $ duration_arg $ impair_arg $ lg_seed_arg $ json_out $ trace_out $ rev)

(* --- watch --- *)

(* A polling console dashboard over /metrics: scrape, diff against the
   previous scrape, print one row of rates/latencies/GC deltas. All the
   state lives server-side in the registry, so watch needs nothing but
   the Prometheus text — including the latency percentiles, which come
   out of service_request_ns _bucket series deltas (the same log-bucket
   math Registry.Histogram.quantile does, over the interval's delta). *)

let prom_parse text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         if line = "" || line.[0] = '#' then None
         else
           match String.rindex_opt line ' ' with
           | None -> None
           | Some i ->
             Option.map
               (fun v -> (String.sub line 0 i, v))
               (float_of_string_opt
                  (String.sub line (i + 1) (String.length line - i - 1))))

let prom_value snap name = List.assoc_opt name snap

let prom_sum_prefix snap prefix =
  List.fold_left
    (fun acc (name, v) ->
      if String.starts_with ~prefix name then acc +. v else acc)
    0.0 snap

(* cumulative le -> count pairs of one histogram family, sorted by le *)
let prom_buckets snap fam =
  let prefix = fam ^ "_bucket{le=\"" in
  List.filter_map
    (fun (name, v) ->
      if String.starts_with ~prefix name then begin
        let le =
          String.sub name (String.length prefix)
            (String.length name - String.length prefix - 2)
        in
        let le =
          if le = "+Inf" then infinity else Option.value ~default:nan (float_of_string_opt le)
        in
        if Float.is_nan le then None else Some (le, v)
      end
      else None)
    snap
  |> List.sort compare

(* interval quantile: diff the cumulative buckets between two scrapes and
   interpolate inside the bucket the rank falls into *)
let bucket_quantile ~old_snap ~new_snap fam p =
  let old_b = prom_buckets old_snap fam and new_b = prom_buckets new_snap fam in
  let delta =
    List.map
      (fun (le, v) ->
        let before =
          match List.assoc_opt le old_b with Some b -> b | None -> 0.0
        in
        (le, v -. before))
      new_b
  in
  match List.rev delta with
  | [] -> None
  | (_, total) :: _ when total <= 0.0 -> None
  | (_, total) :: _ ->
    let target = p /. 100.0 *. total in
    let rec find prev_le prev_cum = function
      | [] -> None
      | (le, cum) :: rest ->
        if cum >= target then
          if Float.is_finite le then begin
            let frac =
              if cum > prev_cum then (target -. prev_cum) /. (cum -. prev_cum)
              else 1.0
            in
            Some (prev_le +. (frac *. (le -. prev_le)))
          end
          else Some prev_le (* the +Inf bucket has no upper edge *)
        else find le cum rest
    in
    find 0.0 0.0 delta

let watch_row ~dt old_snap new_snap =
  let d name =
    match (prom_value new_snap name, prom_value old_snap name) with
    | Some a, Some b -> a -. b
    | Some a, None -> a
    | _ -> 0.0
  in
  let cur name = Option.value ~default:0.0 (prom_value new_snap name) in
  let req_s = d "peace_service_requests_total" /. dt in
  let conf_s = d "peace_service_confirms_total" /. dt in
  let err_s =
    (prom_sum_prefix new_snap "peace_service_errors_total"
    -. prom_sum_prefix old_snap "peace_service_errors_total")
    /. dt
  in
  let q p =
    match bucket_quantile ~old_snap ~new_snap "peace_service_request_ns" p with
    | Some ns -> ns /. 1e6
    | None -> 0.0
  in
  let alloc_mb_s =
    (d "peace_runtime_gc_minor_words" +. d "peace_runtime_gc_major_words")
    *. 8.0 /. 1e6 /. dt
  in
  let heap_mb = cur "peace_runtime_gc_heap_words" *. 8.0 /. 1e6 in
  Printf.printf "%8.1f %8.1f %7.1f %8.2f %8.2f %9.2f %8.1f %6.0f %6.0f\n%!"
    req_s conf_s err_s (q 50.0) (q 99.0) alloc_mb_s heap_mb
    (cur "peace_service_conn_queue_depth")
    (cur "peace_service_connections_active")

(* Firing-alerts pane: scrape /alerts?state=firing and render one line per
   firing rule under the dashboard row. Servers without an evaluator 404
   the path — stay silent then, the dashboard works unchanged. *)
let watch_alerts_pane host port =
  match Peace_obs.Serve.http_get ~host ~port "/alerts?state=firing" with
  | Error _ | Ok (404, _) -> ()
  | Ok (_, body) -> (
    match J.parse body with
    | Error _ -> ()
    | Ok j ->
      let alerts =
        Option.bind (J.member "alerts" j) J.to_list |> Option.value ~default:[]
      in
      List.iter
        (fun a ->
          let s k = Option.bind (J.member k a) J.to_str in
          let v = Option.bind (J.member "value" a) J.to_float in
          Printf.printf "  ALERT firing %s (%s)%s%s\n%!"
            (Option.value ~default:"?" (s "rule"))
            (Option.value ~default:"?" (s "spec"))
            (match v with
            | Some f -> Printf.sprintf " value %s" (J.num_to_string f)
            | None -> "")
            (match s "detail" with
            | Some d when d <> "" -> " — " ^ d
            | _ -> ""))
        alerts)

let watch host port interval once count get_path =
  match get_path with
  | Some path -> (
    (* raw one-shot scrape: print the body, exit by status class — the
       scriptable face of watch (the CI smoke uses it on /healthz and
       /flight) *)
    match Peace_obs.Serve.http_get ~host ~port path with
    | Error e ->
      prerr_endline ("error: " ^ e);
      exit 1
    | Ok (code, body) ->
      print_string body;
      if code < 200 || code > 299 then exit 1)
  | None ->
    let scrape () =
      match Peace_obs.Serve.http_get ~host ~port "/metrics" with
      | Ok (200, body) -> Some (prom_parse body)
      | Ok (code, _) ->
        Printf.eprintf "error: /metrics returned %d\n" code;
        None
      | Error e ->
        Printf.eprintf "error: %s\n" e;
        None
    in
    let interval = if once then 0.4 else interval in
    let rows = if once then Some 1 else count in
    (match scrape () with
    | None -> exit 1
    | Some first ->
      Printf.printf
        "peace watch: http://%s:%d/metrics every %.1fs (rates per second, \
         latencies from interval deltas)\n"
        host port interval;
      Printf.printf "%8s %8s %7s %8s %8s %9s %8s %6s %6s\n" "req/s" "conf/s"
        "err/s" "p50ms" "p99ms" "allocMB/s" "heapMB" "queue" "conns";
      let rec loop prev t_prev remaining =
        match remaining with
        | Some 0 -> ()
        | _ -> (
          Unix.sleepf interval;
          match scrape () with
          | None -> exit 1
          | Some snap ->
            let now = Unix.gettimeofday () in
            watch_row ~dt:(Stdlib.max 1e-9 (now -. t_prev)) prev snap;
            watch_alerts_pane host port;
            loop snap now (Option.map (fun n -> n - 1) remaining))
      in
      loop first (Unix.gettimeofday ()) rows)

let watch_cmd =
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Metrics endpoint host.")
  in
  let port =
    Arg.(
      value & opt int 9464
      & info [ "port" ] ~docv:"N"
          ~doc:"Metrics endpoint port (peace serve / serve-auth \
                --metrics-port).")
  in
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Seconds between scrapes.")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Take two quick scrapes 0.4 s apart, print a single row, and \
             exit — the smoke-test mode.")
  in
  let count =
    Arg.(
      value
      & opt (some int) None
      & info [ "count" ] ~docv:"N"
          ~doc:"Exit after $(docv) rows (default: run until interrupted).")
  in
  let get_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "get" ] ~docv:"PATH"
          ~doc:
            "Instead of the dashboard, GET $(docv) once, print the body, \
             and exit 0 iff the status is 2xx (e.g. --get /healthz).")
  in
  Cmd.v
    (Cmd.info "watch"
       ~doc:
         "Live console dashboard over a /metrics endpoint: request/confirm/\
          error rates, interval latency percentiles, GC and queue pressure")
    Term.(
      const watch $ host $ port $ interval $ once $ count $ get_path)

(* --- alerts --- *)

let alerts_rules_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"RULES"
        ~doc:
          "Alert rules file (one spec per line, # comments), or the literal \
           $(b,default) for the stock authority rules.")

(* Offline rule evaluation: replay a recorded metric timeline (JSONL, one
   {"kind":"sample","series":S,"ts":T,"v":V} object per line — the shape
   peace slo / bench emit) through the evaluator on the recording's own
   clock. CI gate: exits 1 listing the rules that fired. *)
let alerts_check rules_src timeline_path =
  let rules = load_alert_rules rules_src in
  match
    Peace_obs.Alert.replay_timeline ~audit:false rules (read_file timeline_path)
  with
  | Error e ->
    Printf.eprintf "error: %s: %s\n" timeline_path e;
    exit 2
  | Ok (t, statuses) ->
    let trans = Peace_obs.Alert.transitions t in
    let first_firing name =
      List.find_map
        (fun (ts, n, st) ->
          if n = name && st = Peace_obs.Alert.Firing then Some ts else None)
        trans
    in
    Printf.printf "%-24s %-10s %-6s %s\n" "rule" "state" "fired" "first-firing-ms";
    List.iter
      (fun s ->
        let name = s.Peace_obs.Alert.s_name in
        match first_firing name with
        | Some ts ->
          Printf.printf "%-24s %-10s %-6s %d\n" name
            (Peace_obs.Alert.state_to_string s.Peace_obs.Alert.s_state)
            "yes" ts
        | None ->
          Printf.printf "%-24s %-10s %-6s %s\n" name
            (Peace_obs.Alert.state_to_string s.Peace_obs.Alert.s_state)
            "no" "-")
      statuses;
    let fired =
      List.filter_map
        (fun s ->
          let name = s.Peace_obs.Alert.s_name in
          Option.map (fun ts -> (name, ts)) (first_firing name))
        statuses
    in
    if fired = [] then print_endline "no rules fired"
    else begin
      Printf.printf "fired: %s\n"
        (String.concat ", "
           (List.map (fun (n, ts) -> Printf.sprintf "%s@%d" n ts) fired));
      exit 1
    end

(* Parse-only check of a rules file: print every rule in canonical form. *)
let alerts_lint rules_src =
  let rules = load_alert_rules rules_src in
  List.iter
    (fun r ->
      Printf.printf "%-24s %s\n" r.Peace_obs.Alert.r_name
        (Peace_obs.Alert.to_string r))
    rules;
  Printf.printf "%d rules ok\n" (List.length rules)

let alerts_cmd =
  let timeline =
    Arg.(
      required
      & opt (some string) None
      & info [ "timeline" ] ~docv:"FILE"
          ~doc:
            "Recorded metric timeline to evaluate against: JSONL with one \
             {\"kind\":\"sample\",\"series\":S,\"ts\":T,\"v\":V} object per \
             line, evaluated on the recording's own clock.")
  in
  let check =
    Cmd.v
      (Cmd.info "check"
         ~doc:
           "Replay a recorded timeline through the alert rules offline; \
            exit 1 listing the rules that fired")
      Term.(const alerts_check $ alerts_rules_arg $ timeline)
  in
  let lint =
    Cmd.v
      (Cmd.info "lint"
         ~doc:"Parse an alert rules file and print each rule canonically")
      Term.(const alerts_lint $ alerts_rules_arg)
  in
  Cmd.group
    (Cmd.info "alerts"
       ~doc:
         "Offline tools for the alert rule engine (see peace serve-auth \
          --alerts for live evaluation)")
    [ check; lint ]

(* --- validate-params --- *)

let validate_params params_src =
  let params = load_params params_src in
  or_die (Params.validate params);
  Printf.printf "%s: ok (q %d bits, p %d bits, cofactor %d bits)\n"
    params.Params.name
    (Bigint.num_bits params.Params.q)
    (Bigint.num_bits params.Params.p)
    (Bigint.num_bits params.Params.h)

let validate_cmd =
  Cmd.v
    (Cmd.info "validate-params" ~doc:"Re-check a pairing parameter set")
    Term.(const validate_params $ params_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "peace" ~version:"1.0.0"
      ~doc:"PEACE: privacy-enhanced yet accountable security framework for WMNs"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            gen_params_cmd;
            validate_cmd;
            setup_cmd;
            issue_cmd;
            sign_cmd;
            verify_cmd;
            audit_cmd;
            simulate_cmd;
            chaos_cmd;
            bench_report_cmd;
            stats_cmd;
            serve_cmd;
            serve_auth_cmd;
            loadgen_cmd;
            slo_cmd;
            watch_cmd;
            alerts_cmd;
          ]))
