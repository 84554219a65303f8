(** Wire formats of the six PEACE protocol messages.

    User–router authentication (paper §IV-B): (M.1) beacon, (M.2) access
    request, (M.3) access confirm. User–user authentication (§IV-C):
    (M̃.1) peer hello, (M̃.2) peer response, (M̃.3) peer confirm.

    Group signatures bind the Diffie–Hellman transcript
    (gᵃ, gᵇ, timestamp); {!auth_transcript} builds that byte string
    identically on both sides.

    A share that a message only echoes back to the party that made it
    ([ac_g_rj] and [ac_g_rr] in (M.3), [pr_g_rj] in (M̃.2), [pc_g_rj] and
    [pc_g_rl] in (M̃.3)) is kept as its encoding: the receiver compares it
    byte for byte with the encoding of the share it holds. The encoding is
    canonical ({!Peace_pairing.G1.decode} refuses x ≥ p and takes y's
    parity from the prefix), so equal bytes mean equal points. *)

open Peace_ec
open Peace_pairing
open Peace_groupsig

(** (M.1) — broadcast periodically by each mesh router. *)
type beacon = {
  router_id : int;
  g : G1.point;  (** fresh session DH generator *)
  g_rr : G1.point;  (** g^{r_R} *)
  ts1 : int;
  puzzle : Puzzle.t option;  (** present when the router is under attack *)
  beacon_sig : Ecdsa.signature;  (** Sig_{RSK_k} over (g, g^{r_R}, ts1, puzzle) *)
  cert : Cert.t;
  crl : Cert.crl;
  url : Url.t;
}

(** (M.2) — unicast reply carrying the anonymous group signature. *)
type access_request = {
  g_rj : G1.point;
  ar_g_rr : G1.point;
  ts2 : int;
  gsig : Group_sig.signature;
  puzzle_solution : string option;
}

(** (M.2) after its framing stage: every field read and its length
    checked, no point decoded. The router runs its cheap checks on this
    ({!Mesh_router.access_precheck_frame}) before paying for any point. *)
type access_frame = {
  af_g_rj : string;  (** g^{r_j}'s encoding *)
  af_g_rr : string;  (** the echoed g^{r_R}'s encoding *)
  af_ts2 : int;
  af_gsig : string;  (** the group signature, {!Group_sig.signature_size} bytes *)
  af_puzzle_solution : string option;
}

(** (M.3) — the router's key confirmation, encrypted under K_{k,j}. *)
type access_confirm = {
  ac_g_rj : string;  (** the echoed g^{r_j}'s encoding *)
  ac_g_rr : string;  (** the echoed g^{r_R}'s encoding *)
  payload : string;  (** E_{K}(MR_k, g^{r_j}, g^{r_R}) *)
}

(** (M̃.1) — local broadcast by a user seeking relay peers. *)
type peer_hello = {
  ph_g : G1.point;
  ph_g_rj : G1.point;
  ph_ts1 : int;
  ph_gsig : Group_sig.signature;
}

(** (M̃.2) *)
type peer_response = {
  pr_g_rj : string;  (** the echoed g^{r_j}'s encoding *)
  pr_g_rl : G1.point;
  pr_ts2 : int;
  pr_gsig : Group_sig.signature;
}

(** (M̃.3) *)
type peer_confirm = {
  pc_g_rj : string;  (** the echoed g^{r_j}'s encoding *)
  pc_g_rl : string;  (** the echoed g^{r_l}'s encoding *)
  pc_payload : string;  (** E_K(g^{r_j}, g^{r_l}, ts1, ts2) *)
}

val auth_transcript : Config.t -> G1.point -> G1.point -> int -> string
(** [auth_transcript config a b ts] — the byte string the group signature
    covers: framed (a, b, ts). *)

val auth_transcript_of_encodings : string -> string -> int -> string
(** {!auth_transcript} from the two shares' encodings: the same bytes,
    with no point in hand. *)

val beacon_signed_payload : Config.t -> beacon -> string
(** What [beacon_sig] covers (everything except certificate and lists,
    which carry the operator's own signatures). *)

(** {1 Serialisation}

    Decoding is total. Every point a receiver uses is decoded with its
    q-subgroup check ({!Peace_pairing.G1.decode}): the beacon's [g] and
    [g_rr] and its URL's tokens, (M.2)'s [g_rj] and the signature's T1
    and T2, (M̃.1)'s [ph_g] and [ph_g_rj], (M̃.2)'s [pr_g_rl] and
    signature. Echoed shares stay length-checked encodings; only the
    decoded (M.2) record carries its echoed [ar_g_rr] as a point, for the
    callers that hold records ({!access_frame} is the router's view).
    Decoders need the group public key to size signatures. *)

val beacon_to_bytes : Config.t -> beacon -> string

val beacon_of_bytes : Config.t -> string -> beacon option
(** Keeps its last successful decode, process-wide, as {!Url.of_bytes}
    does ({!Kept.decoder}): the same bytes under the same parameter set
    and curve return the kept value, physically equal, without a decode. *)

val access_request_to_bytes : Config.t -> Group_sig.gpk -> access_request -> string

val access_request_of_bytes : Config.t -> Group_sig.gpk -> string -> access_request option
(** The framing stage, then every point: [ar_g_rr], [g_rj], T1 and T2. *)

val access_frame_of_bytes : Config.t -> Group_sig.gpk -> string -> access_frame option
(** (M.2)'s framing stage: reads every field and checks each length — the
    shares' against the group-element size, the signature's against
    {!Group_sig.signature_size} — and decodes no point. *)

val access_request_of_frame :
  Config.t -> Group_sig.gpk -> g_rr:G1.point -> access_frame -> access_request option
(** (M.2)'s point stage: decodes [g_rj], T1 and T2, each with its subgroup
    check. [ar_g_rr] is [g_rr], the point the frame's [af_g_rr] encodes,
    which the router already holds. *)

val access_confirm_to_bytes : Config.t -> access_confirm -> string
val access_confirm_of_bytes : Config.t -> string -> access_confirm option

val peer_hello_to_bytes : Config.t -> Group_sig.gpk -> peer_hello -> string
val peer_hello_of_bytes : Config.t -> Group_sig.gpk -> string -> peer_hello option

val peer_response_to_bytes : Config.t -> Group_sig.gpk -> peer_response -> string
val peer_response_of_bytes : Config.t -> Group_sig.gpk -> string -> peer_response option

val peer_confirm_to_bytes : Config.t -> peer_confirm -> string
val peer_confirm_of_bytes : Config.t -> string -> peer_confirm option
