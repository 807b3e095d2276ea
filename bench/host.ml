(* Host provenance for the BENCH_*.json files: the logical CPUs [nproc]
   reports (null when it cannot run), the runtime's domain
   recommendation and the compiler, as one JSON object. *)

let nproc () =
  match Unix.open_process_in "nproc 2>/dev/null" with
  | exception Unix.Unix_error _ -> None
  | ic ->
      let n = try int_of_string_opt (String.trim (input_line ic)) with End_of_file -> None in
      ignore (Unix.close_process_in ic);
      n

let json () =
  Printf.sprintf "{\"nproc\": %s, \"recommended_domain_count\": %d, \"ocaml\": \"%s\"}"
    (match nproc () with Some n -> string_of_int n | None -> "null")
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
