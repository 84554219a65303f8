(** The paper's multi-faceted user identity model (§III-C, Fig. 2).

    A user's identity splits into {e essential attribute information} —
    anything that uniquely identifies the person — and {e nonessential
    attribute information}: the user's roles in society, each tied to a user
    group (employer, university, club…). PEACE's privacy goal is that
    network evidence alone reveals at most one nonessential attribute. *)

type essential = {
  name : string;
  national_id : string;  (** ssn / driver licence / passport — any unique id *)
}

type role = {
  group_id : int;  (** the user group that vouches for this role *)
  description : string;  (** e.g. "engineer of company X" *)
}

type t = {
  uid : string;  (** opaque handle used by group managers' records *)
  essential : essential;
  roles : role list;
}

val make : uid:string -> name:string -> national_id:string -> role list -> t

val has_role : t -> group_id:int -> bool

val role_description : t -> group_id:int -> string option
(** The nonessential attribute an audit of that group would reveal. *)

val pp : Format.formatter -> t -> unit
(** Prints uid and roles only — never essential attributes. *)
