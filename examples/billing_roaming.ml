(* Roaming with privacy-preserving billing.

   Citizens roam between cells of the metropolitan mesh, re-authenticating
   anonymously at each handoff; the operator meters every session and
   bills each USER GROUP — never an individual. This is the paper's §I
   billing motivation realised under its §IV-D accountability model.

   Run with: dune exec examples/billing_roaming.exe *)

open Peace_core

let ok = function
  | Ok v -> v
  | Error e -> failwith (Protocol_error.to_string e)

let () =
  Printf.printf "== PEACE roaming and group-level billing ==\n\n";

  (* 1. roaming at city scale: every handoff is a fresh anonymous session *)
  Printf.printf "simulating roaming: 4 routers, 6 users, 60 s, moving every ~15 s...\n%!";
  let r =
    Peace_sim.Scenario.roaming ~seed:7 ~n_routers:4 ~n_users:6
      ~duration_ms:60_000 ~move_period_ms:15_000 ()
  in
  Printf.printf "  moves: %d   completed handoffs: %d (mean %.0f ms)   failures: %d\n"
    r.Peace_sim.Scenario.ro_moves r.Peace_sim.Scenario.ro_handoffs
    r.Peace_sim.Scenario.ro_handoff_mean_ms r.Peace_sim.Scenario.ro_handoff_failures;
  Printf.printf
    "  each user left %.1f session identifiers behind — all fresh pseudonym\n\
    \  pairs, unlinkable to each other and to the user.\n\n"
    r.Peace_sim.Scenario.ro_sessions_per_user;

  (* 2. metering and invoicing on a small deterministic deployment; the
        audit ledger, kept in memory, records each accepted session *)
  let ledger = ref [] in
  Peace_obs.Audit.install
    (Some (Peace_obs.Audit.create ~sink:(fun line -> ledger := line :: !ledger) ()));
  let config = Config.tiny_test () in
  let d = Deployment.create ~seed:"billing" config in
  ignore (Deployment.add_group d ~group_id:1 ~size:4); (* Company X *)
  ignore (Deployment.add_group d ~group_id:2 ~size:4); (* University Z *)
  let router = Deployment.add_router d ~router_id:1 in
  let add uid g =
    match
      Deployment.add_user d
        (Identity.make ~uid ~name:uid ~national_id:uid
           [ { Identity.group_id = g; description = "member" } ])
    with
    | Ok u -> u
    | Error reason -> failwith reason
  in
  let employee1 = add "employee-1" 1 in
  let employee2 = add "employee-2" 1 in
  let student = add "student-1" 2 in
  let meter = Accounting.create_meter () in
  let browse user upl downl =
    let session, router_session = ok (Deployment.authenticate d ~user ~router ()) in
    (* data flows; the router meters bytes per (anonymous) session id *)
    let sid = Session.id router_session in
    Accounting.record_up meter ~session_id:sid ~bytes:upl;
    Accounting.record_down meter ~session_id:sid ~bytes:downl;
    ignore (Accounting.close_session meter ~session_id:sid ~duration_ms:(upl / 10));
    ignore session
  in
  browse employee1 4_000 48_000;
  browse employee2 1_000 9_000;
  browse employee1 2_000 20_000;
  browse student 500 80_000;
  Printf.printf "metered %d sessions at router 1; producing the operator's invoice:\n\n"
    (List.length (Accounting.usages meter));
  let lines =
    Accounting.invoice (Deployment.operator d) ~ledger:(List.rev !ledger) meter
  in
  Format.printf "%a" Accounting.pp_invoice lines;
  Printf.printf
    "\nthe invoice names user GROUPS only: Company X pays for three sessions\n\
     without the operator ever learning which employee browsed what — the\n\
     paper's 'sufficient for accountability, minimal for privacy' balance.\n"
