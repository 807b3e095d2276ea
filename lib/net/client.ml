type t = { fd : Unix.file_descr; io : Wire.Io.t; mutable open_ : bool }

let send t req =
  if not t.open_ then Error "connection closed"
  else Wire.Io.write t.io (Wire.encode_req req)

let recv t =
  if not t.open_ then Error "connection closed"
  else
    match Wire.Io.read_frame t.io with
    | Ok payload -> Wire.decode_resp payload
    | Error `Eof -> Error "connection closed by server"
    | Error `Timeout -> Error "receive timed out"
    | Error (`Corrupt msg) -> Error ("corrupt frame: " ^ msg)

let call t req = match send t req with Ok () -> recv t | Error _ as e -> e

let connect ?(digest = "") ?(client = "") ?recv_timeout_s ~addr () =
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let domain =
    match addr with Wire.Unix_sock _ -> Unix.PF_UNIX | Wire.Tcp _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  match
    Option.iter (fun s -> Unix.setsockopt_float fd Unix.SO_RCVTIMEO s) recv_timeout_s;
    Unix.connect fd (Wire.sockaddr_of_addr addr)
  with
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printexc.to_string e)
  | () -> (
      let t = { fd; io = Wire.Io.of_fd fd; open_ = true } in
      let fail msg =
        (try Unix.close fd with Unix.Unix_error _ -> ());
        t.open_ <- false;
        Error msg
      in
      match
        call t (Wire.Hello { version = Wire.protocol_version; digest; client })
      with
      | Ok (Wire.Welcome { scheme; banner; _ }) -> Ok (t, `Welcome (scheme, banner))
      | Ok (Wire.Err msg) -> fail ("server refused: " ^ msg)
      | Ok _ -> fail "unexpected handshake response"
      | Error msg -> fail msg)

let run t ~rq actions = send t (Wire.Run { rq; actions })

let close t =
  if t.open_ then begin
    t.open_ <- false;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let quit t =
  if t.open_ then begin
    ignore (send t Wire.Quit);
    (* wait briefly for Bye so the server logs a clean goodbye *)
    (match recv t with Ok _ | Error _ -> ());
    close t
  end
