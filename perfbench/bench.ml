(* Entry point of the benchmark's two processes; perfbench/run.py starts
   them.

     bench.exe server WORKLOAD SOCKET DATA_DIR TRACE SPANS_FILE RECOVER
     bench.exe load   WORKLOAD SOCKET SEED ROUND TRACE *)

let () =
  let flag s = s = "1" in
  match Array.to_list Sys.argv |> List.tl with
  | [ "server"; workload; sock; dir; trace; spans; recover ] ->
      Srv.run ~workload ~sock ~dir ~trace:(flag trace) ~spans ~recover:(flag recover)
  | [ "load"; workload; sock; seed; round; trace ] ->
      Load.run ~workload ~sock ~seed:(int_of_string seed) ~round:(int_of_string round)
        ~trace:(flag trace)
  | _ ->
      prerr_endline "usage: bench.exe server|load ... (started by perfbench/run.py)";
      exit 2
