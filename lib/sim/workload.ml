open Tavcc_model
open Tavcc_lang
module CN = Name.Class
module MN = Name.Method
module FN = Name.Field

type schema_params = {
  sp_depth : int;
  sp_fanout : int;
  sp_shared_methods : int;
  sp_own_methods : int;
  sp_fields : int;
  sp_reads : int;
  sp_writes : int;
  sp_selfcalls : int;
  sp_override_prob : float;
}

let default_params =
  {
    sp_depth = 3;
    sp_fanout = 2;
    sp_shared_methods = 4;
    sp_own_methods = 2;
    sp_fields = 3;
    sp_reads = 2;
    sp_writes = 1;
    sp_selfcalls = 1;
    sp_override_prob = 0.5;
  }

let field_name cls i = FN.of_string (Printf.sprintf "x_%s_%d" (CN.to_string cls) i)
let shared_method i = MN.of_string (Printf.sprintf "g%d" i)
let own_method cls i = MN.of_string (Printf.sprintf "o_%s_%d" (CN.to_string cls) i)

(* var t := f + p1;  — a read of field [f]. *)
let read_stmt n f = Ast.Var (Printf.sprintf "t%d" n, Ast.Binop (Ast.Add, Ast.Ident (FN.to_string f), Ast.Ident "p1"))

(* f := f + p1;  — a write (and read) of field [f]. *)
let write_stmt f =
  Ast.Assign (FN.to_string f, Ast.Binop (Ast.Add, Ast.Ident (FN.to_string f), Ast.Ident "p1"))

let self_send ?prefix m =
  Ast.Send_stmt
    { Ast.msg_prefix = prefix; msg_name = m; msg_args = [ Ast.Ident "p1" ]; msg_recv = Ast.Rself;
      msg_pos = None }

let pick_fields rng fields n =
  if fields = [] then []
  else List.init n (fun _ -> Rng.pick rng fields)

(* Body of a method: some reads, some writes, some self-sends to shared
   methods of strictly smaller index (termination). *)
let method_body rng ~fields ~reads ~writes ~callable =
  let rs = pick_fields rng fields reads |> List.mapi read_stmt in
  let ws = pick_fields rng fields writes |> List.map write_stmt in
  let cs =
    if callable = [] then []
    else List.filteri (fun i _ -> i < List.length callable) (List.map self_send callable)
  in
  rs @ ws @ cs

let make_schema rng p =
  (* Class tree: breadth-first, [c0] the root. *)
  let counter = ref 0 in
  let fresh_class () =
    let c = CN.of_string (Printf.sprintf "k%d" !counter) in
    incr counter;
    c
  in
  let rec grow parent depth =
    if depth = 0 then []
    else
      List.concat_map
        (fun _ ->
          let c = fresh_class () in
          (c, Some parent) :: grow c (depth - 1))
        (List.init p.sp_fanout Fun.id)
  in
  let root = fresh_class () in
  let tree = (root, None) :: grow root (p.sp_depth - 1) in
  (* Visible fields accumulate along the chain of ancestors. *)
  let own_fields c = List.init p.sp_fields (fun i -> field_name c i) in
  let rec visible_fields c =
    let parent = List.assoc c tree in
    own_fields c @ match parent with Some pa -> visible_fields pa | None -> []
  in
  let decls =
    List.map
      (fun (c, parent) ->
        let fields = visible_fields c in
        let shared_defs =
          if parent = None then
            (* The root defines every shared method. *)
            List.init p.sp_shared_methods (fun j ->
                let callable =
                  pick_fields rng (List.init j shared_method) (min j p.sp_selfcalls)
                  |> List.sort_uniq MN.compare
                in
                {
                  Schema.m_name = shared_method j;
                  m_params = [ "p1" ];
                  m_body =
                    method_body rng ~fields ~reads:p.sp_reads ~writes:p.sp_writes ~callable;
                })
          else
            (* Subclasses override some shared methods as extensions. *)
            List.filter_map
              (fun j ->
                if Rng.chance rng p.sp_override_prob then
                  let prefix = Option.get parent in
                  Some
                    {
                      Schema.m_name = shared_method j;
                      m_params = [ "p1" ];
                      m_body =
                        self_send ~prefix (shared_method j)
                        :: method_body rng ~fields:(own_fields c) ~reads:p.sp_reads
                             ~writes:p.sp_writes ~callable:[];
                    }
                else None)
              (List.init p.sp_shared_methods Fun.id)
        in
        let own_defs =
          List.init p.sp_own_methods (fun n ->
              let callable =
                pick_fields rng (List.init p.sp_shared_methods shared_method)
                  (min p.sp_shared_methods p.sp_selfcalls)
                |> List.sort_uniq MN.compare
              in
              {
                Schema.m_name = own_method c n;
                m_params = [ "p1" ];
                m_body = method_body rng ~fields ~reads:p.sp_reads ~writes:p.sp_writes ~callable;
              })
        in
        {
          Schema.c_name = c;
          c_parents = (match parent with Some pa -> [ pa ] | None -> []);
          c_fields = List.map (fun f -> (f, Value.Tint)) (own_fields c);
          c_methods = shared_defs @ own_defs;
        })
      tree
  in
  match Schema.build decls with
  | Ok s -> s
  | Error e -> failwith (Format.asprintf "Workload.make_schema: %a" Schema.pp_error e)

let build_exn decls =
  match Schema.build decls with
  | Ok s -> s
  | Error e -> failwith (Format.asprintf "Workload schema: %a" Schema.pp_error e)

let chain_schema ~levels =
  let f = FN.of_string "acc" in
  let m j = MN.of_string (Printf.sprintf "m%d" j) in
  let body j =
    if j = 0 then [ write_stmt f ]
    else [ read_stmt 0 f; self_send (m (j - 1)) ]
  in
  build_exn
    [
      {
        Schema.c_name = CN.of_string "chain";
        c_parents = [];
        c_fields = [ (f, Value.Tint) ];
        c_methods =
          List.init (levels + 1) (fun j ->
              { Schema.m_name = m j; m_params = [ "p1" ]; m_body = body j });
      };
    ]

let pseudo_conflict_schema () =
  let base = CN.of_string "base" in
  let sub = CN.of_string "sub" in
  let fb i = FN.of_string (Printf.sprintf "b%d" i) in
  let fs i = FN.of_string (Printf.sprintf "s%d" i) in
  build_exn
    [
      {
        Schema.c_name = base;
        c_parents = [];
        (* [pk] plays the primary key in the relational comparison; the
           writers below leave it alone so the pseudo-conflict is pure
           (cf. the paper's key-field remark in sec. 5.2). *)
        c_fields = [ (FN.of_string "pk", Value.Tint); (fb 0, Value.Tint); (fb 1, Value.Tint) ];
        c_methods =
          [
            {
              Schema.m_name = MN.of_string "wbase";
              m_params = [ "p1" ];
              m_body = [ read_stmt 0 (fb 1); write_stmt (fb 0) ];
            };
            {
              Schema.m_name = MN.of_string "rbase";
              m_params = [ "p1" ];
              m_body = [ read_stmt 0 (fb 0); read_stmt 1 (fb 1) ];
            };
          ];
      };
      {
        Schema.c_name = sub;
        c_parents = [ base ];
        c_fields = [ (fs 0, Value.Tint); (fs 1, Value.Tint) ];
        c_methods =
          [
            {
              Schema.m_name = MN.of_string "wsub";
              m_params = [ "p1" ];
              m_body = [ read_stmt 0 (fs 1); write_stmt (fs 0) ];
            };
          ];
      };
    ]

let recursive_cluster_schema ~methods =
  let f i = FN.of_string (Printf.sprintf "r%d" i) in
  let m i = MN.of_string (Printf.sprintf "c%d" i) in
  let n = max 2 methods in
  build_exn
    [
      {
        Schema.c_name = CN.of_string "cluster";
        c_parents = [];
        c_fields = List.init n (fun i -> (f i, Value.Tint));
        c_methods =
          List.init n (fun i ->
              {
                Schema.m_name = m i;
                m_params = [ "p1" ];
                m_body =
                  [
                    write_stmt (f i);
                    self_send (m ((i + 1) mod n));
                    (* a chord to make the graph more than a bare ring *)
                    self_send (m ((i + (n / 2)) mod n));
                  ];
              });
      };
    ]

let wide_schema ~fields ~touched =
  let f i = FN.of_string (Printf.sprintf "w%d" i) in
  let touched = min touched fields in
  build_exn
    [
      {
        Schema.c_name = CN.of_string "wide";
        c_parents = [];
        c_fields = List.init fields (fun i -> (f i, Value.Tint));
        c_methods =
          [
            {
              Schema.m_name = MN.of_string "touch";
              m_params = [ "p1" ];
              m_body = List.init touched (fun i -> write_stmt (f i));
            };
            {
              Schema.m_name = MN.of_string "probe";
              m_params = [ "p1" ];
              m_body = [ read_stmt 0 (f (fields - 1)) ];
            };
          ];
      };
    ]

let slice_schema ?(readers = 0) ~methods ~work () =
  let f i = FN.of_string (Printf.sprintf "s%d" i) in
  let n = max 1 methods in
  let w = max 1 work in
  build_exn
    [
      {
        Schema.c_name = CN.of_string "grid";
        c_parents = [];
        c_fields = List.init n (fun i -> (f i, Value.Tint));
        c_methods =
          List.init n (fun i ->
              {
                Schema.m_name = MN.of_string (Printf.sprintf "u%d" i);
                m_params = [ "p1" ];
                (* [work] read-modify-writes of the method's own field:
                   a critical section long enough to measure, touching
                   nothing anyone else's slice touches. *)
                m_body = List.init w (fun _ -> write_stmt (f i));
              })
          @ List.init readers (fun i ->
                {
                  Schema.m_name = MN.of_string (Printf.sprintf "r%d" i);
                  m_params = [ "p1" ];
                  (* write-free: snapshot-eligible under mvcc-tav *)
                  m_body = List.init w (fun k -> read_stmt k (f (i mod n)));
                });
      };
    ]

let grid_methods store ~prefix =
  let grid = CN.of_string "grid" in
  Schema.methods (Store.schema store) grid
  |> List.filter (fun m -> String.length (MN.to_string m) > 0 && (MN.to_string m).[0] = prefix)

let mixed_slice_jobs rng store ~txns ~actions_per_txn ~hot_instances ~read_frac =
  let grid = CN.of_string "grid" in
  let ext = Array.of_list (Store.extent store grid) in
  let n = Array.length ext in
  if n = 0 then invalid_arg "Workload.mixed_slice_jobs: no grid instances";
  let hot = max 1 (min hot_instances n) in
  let writers = Array.of_list (grid_methods store ~prefix:'u') in
  let readers = Array.of_list (grid_methods store ~prefix:'r') in
  if Array.length writers = 0 then invalid_arg "Workload.mixed_slice_jobs: no writer methods";
  if read_frac > 0. && Array.length readers = 0 then
    invalid_arg "Workload.mixed_slice_jobs: read_frac > 0 but the schema has no readers";
  List.init txns (fun i ->
      let id = i + 1 in
      let pool = if read_frac > 0. && Rng.chance rng read_frac then readers else writers in
      let meth = pool.(i mod Array.length pool) in
      ( id,
        List.init actions_per_txn (fun _ ->
            Tavcc_cc.Exec.Call
              (ext.(Rng.int rng hot), meth, [ Value.Vint (Rng.int rng 100) ])) ))

let slice_jobs rng store ~txns ~actions_per_txn ~hot_instances =
  mixed_slice_jobs rng store ~txns ~actions_per_txn ~hot_instances ~read_frac:0.

let populate store ~per_class =
  let schema = Store.schema store in
  List.iter
    (fun c ->
      for _ = 1 to per_class do
        ignore (Store.new_instance store c)
      done)
    (Schema.classes schema)

let random_jobs rng store ~txns ~actions_per_txn ~extent_prob ~hot_instances ~hot_prob =
  let schema = Store.schema store in
  let classes = Schema.classes schema in
  let all_instances = List.concat_map (fun c -> Store.extent store c) classes in
  let all = Array.of_list all_instances in
  let n = Array.length all in
  if n = 0 then invalid_arg "Workload.random_jobs: empty store";
  let hot = min hot_instances n in
  let pick_instance () =
    if hot > 0 && Rng.chance rng hot_prob then all.(Rng.int rng hot)
    else all.(Rng.int rng n)
  in
  let action () =
    if Rng.chance rng extent_prob then
      let cls = Rng.pick rng classes in
      let meth = Rng.pick rng (Schema.methods schema cls) in
      Tavcc_cc.Exec.Call_extent
        { cls; deep = Rng.bool rng; meth; args = [ Value.Vint (Rng.int rng 100) ] }
    else
      let oid = pick_instance () in
      let cls = Store.class_of store oid in
      let meth = Rng.pick rng (Schema.methods schema cls) in
      Tavcc_cc.Exec.Call (oid, meth, [ Value.Vint (Rng.int rng 100) ])
  in
  List.init txns (fun i -> (i + 1, List.init actions_per_txn (fun _ -> action ())))
