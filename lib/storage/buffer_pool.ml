(* Clock (second-chance) buffer pool.

   Not thread-safe on its own: the storage engine serialises all access
   under its mutex.  The invariants the tests hammer:

   - the pin ledger never goes negative ([unpin] on a pin-count of 0
     raises);
   - a dirty frame is never evicted without [write_back] completing
     first;
   - the clock hand always makes progress: eviction scans at most two
     full sweeps before declaring the pool exhausted (every frame
     pinned), so a lost reference bit cannot loop forever.

   Each frame owns one page for the pool's lifetime: a miss has [load]
   fill the victim's page in place, so the pool never allocates an
   image after [create]. *)

type frame = {
  mutable f_pid : int; (* -1 = empty *)
  f_page : Page.t;
  mutable f_pin : int;
  mutable f_dirty : bool;
  mutable f_ref : bool;
}

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable write_backs : int;
}

type t = {
  frames : frame array;
  map : (int, int) Hashtbl.t; (* pid -> frame index *)
  mutable hand : int;
  load : int -> Page.t -> unit;
  write_back : int -> Page.t -> unit;
  stats : stats;
}

let create ~pages ~page_size ~load ~write_back =
  if pages < 2 then invalid_arg "Buffer_pool.create: need at least 2 pages";
  {
    frames =
      Array.init pages (fun _ ->
          {
            f_pid = -1;
            f_page = Page.create page_size;
            f_pin = 0;
            f_dirty = false;
            f_ref = false;
          });
    map = Hashtbl.create (2 * pages);
    hand = 0;
    load;
    write_back;
    stats = { hits = 0; misses = 0; evictions = 0; write_backs = 0 };
  }

let stats t = t.stats
let capacity t = Array.length t.frames

let flush_frame t f =
  if f.f_dirty then begin
    t.write_back f.f_pid f.f_page;
    t.stats.write_backs <- t.stats.write_backs + 1;
    f.f_dirty <- false
  end

let victim t =
  let n = Array.length t.frames in
  (* first pass: any empty frame *)
  let empty = ref (-1) in
  Array.iteri (fun i f -> if !empty < 0 && f.f_pid < 0 then empty := i) t.frames;
  if !empty >= 0 then !empty
  else begin
    let steps = ref 0 in
    let found = ref (-1) in
    while !found < 0 && !steps < 2 * n do
      let f = t.frames.(t.hand) in
      if f.f_pin = 0 then
        if f.f_ref then f.f_ref <- false else found := t.hand;
      if !found < 0 then t.hand <- (t.hand + 1) mod n;
      incr steps
    done;
    if !found < 0 then failwith "Buffer_pool: all frames pinned";
    !found
  end

let get t pid =
  match Hashtbl.find_opt t.map pid with
  | Some i ->
      let f = t.frames.(i) in
      t.stats.hits <- t.stats.hits + 1;
      f.f_pin <- f.f_pin + 1;
      f.f_ref <- true;
      f.f_page
  | None ->
      t.stats.misses <- t.stats.misses + 1;
      let i = victim t in
      let f = t.frames.(i) in
      if f.f_pid >= 0 then begin
        flush_frame t f;
        Hashtbl.remove t.map f.f_pid;
        f.f_pid <- -1;
        t.stats.evictions <- t.stats.evictions + 1
      end;
      (* the frame is empty until the load completes: a load that raises
         leaves a half-filled page that no pid maps to *)
      t.load pid f.f_page;
      f.f_pid <- pid;
      f.f_pin <- 1;
      f.f_dirty <- false;
      f.f_ref <- true;
      Hashtbl.replace t.map pid i;
      t.hand <- (t.hand + 1) mod Array.length t.frames;
      f.f_page

let unpin t pid ~dirty =
  match Hashtbl.find_opt t.map pid with
  | None -> invalid_arg "Buffer_pool.unpin: page not resident"
  | Some i ->
      let f = t.frames.(i) in
      if f.f_pin <= 0 then invalid_arg "Buffer_pool.unpin: pin ledger underflow";
      f.f_pin <- f.f_pin - 1;
      if dirty then f.f_dirty <- true

let mark_dirty t pid =
  match Hashtbl.find_opt t.map pid with
  | None -> invalid_arg "Buffer_pool.mark_dirty: page not resident"
  | Some i -> t.frames.(i).f_dirty <- true

let flush_all t = Array.iter (fun f -> if f.f_pid >= 0 then flush_frame t f) t.frames

let pinned t =
  Array.fold_left (fun acc f -> acc + (if f.f_pid >= 0 then f.f_pin else 0)) 0 t.frames

let dirty_count t =
  Array.fold_left (fun acc f -> acc + (if f.f_pid >= 0 && f.f_dirty then 1 else 0)) 0 t.frames

let drop_all t =
  Array.iter
    (fun f ->
      f.f_pid <- -1;
      f.f_pin <- 0;
      f.f_dirty <- false;
      f.f_ref <- false)
    t.frames;
  Hashtbl.reset t.map
