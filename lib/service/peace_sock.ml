type addr = Tcp of string * int | Unix_path of string

let addr_of_string s =
  let split_last_colon str =
    match String.rindex_opt str ':' with
    | None -> None
    | Some i ->
      Some (String.sub str 0 i, String.sub str (i + 1) (String.length str - i - 1))
  in
  let tcp host port_s =
    if host = "" then Error "sock address: empty host"
    else begin
      match int_of_string_opt port_s with
      | Some port when port >= 0 && port <= 0xFFFF -> Ok (Tcp (host, port))
      | Some _ -> Error "sock address: port out of range"
      | None -> Error ("sock address: bad port " ^ port_s)
    end
  in
  match String.index_opt s ':' with
  | None -> Error ("sock address: expected tcp:HOST:PORT or unix:PATH, got " ^ s)
  | Some i -> (
    let scheme = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match scheme with
    | "unix" ->
      if rest = "" then Error "sock address: empty unix path" else Ok (Unix_path rest)
    | "tcp" -> (
      match split_last_colon rest with
      | Some (host, port_s) -> tcp host port_s
      | None -> Error ("sock address: expected tcp:HOST:PORT, got " ^ s))
    | host ->
      (* bare HOST:PORT convenience form *)
      tcp host rest)

let addr_to_string = function
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port
  | Unix_path path -> "unix:" ^ path

let ignore_sigpipe () =
  match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _previous -> ()
  | exception (Invalid_argument _ | Sys_error _) -> ()

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let unlink_noerr path = try Unix.unlink path with _ -> ()

let sockaddr_of = function
  | Tcp (host, port) -> (
    match Unix.inet_addr_of_string host with
    | ip -> Ok (Unix.ADDR_INET (ip, port))
    | exception Failure _ -> (
      (* not a literal: resolve the name *)
      match Unix.getaddrinfo host (string_of_int port) [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] with
      | { Unix.ai_addr; _ } :: _ -> Ok ai_addr
      | [] | (exception Not_found) -> Error ("cannot resolve host " ^ host)))
  | Unix_path path ->
    if String.length path >= 104 then
      Error (Printf.sprintf "unix socket path too long (%d chars): %s" (String.length path) path)
    else Ok (Unix.ADDR_UNIX path)

let resolved_addr fd addr =
  match addr with
  | Tcp (host, _) -> (
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, port) -> Tcp (host, port)
    | _ -> addr
    | exception Unix.Unix_error _ -> addr)
  | Unix_path _ -> addr

let describe what addr err =
  Printf.sprintf "cannot %s %s: %s" what (addr_to_string addr) (Unix.error_message err)

let listen addr =
  ignore_sigpipe ();
  match sockaddr_of addr with
  | Error _ as e -> e
  | Ok sockaddr ->
    let domain = Unix.domain_of_sockaddr sockaddr in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    (match
       (match addr with
       | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
       | Unix_path path -> unlink_noerr path);
       Unix.bind fd sockaddr;
       Unix.listen fd 64
     with
    | () -> Ok (fd, resolved_addr fd addr)
    | exception Unix.Unix_error (err, _, _) ->
      close_noerr fd;
      Error (describe "listen on" addr err))

let connect addr =
  ignore_sigpipe ();
  match sockaddr_of addr with
  | Error _ as e -> e
  | Ok sockaddr -> (
    let fd = Unix.socket (Unix.domain_of_sockaddr sockaddr) Unix.SOCK_STREAM 0 in
    match Unix.connect fd sockaddr with
    | () -> Ok fd
    | exception Unix.Unix_error (err, _, _) ->
      close_noerr fd;
      Error (describe "connect to" addr err))

let set_timeout fd seconds =
  try Unix.setsockopt_float fd Unix.SO_RCVTIMEO seconds
  with Unix.Unix_error _ | Invalid_argument _ -> ()

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off >= len then Ok ()
    else begin
      match Unix.write_substring fd s off (len - off) with
      | 0 -> Error "write: no progress"
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (err, _, _) ->
        Error ("write: " ^ Unix.error_message err)
    end
  in
  go 0

let rec read_into fd buf off len =
  match Unix.read fd buf off len with
  | n -> Ok n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_into fd buf off len
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    Error `Timeout
  | exception Unix.Unix_error (err, _, _) ->
    Error (`Err ("read: " ^ Unix.error_message err))
