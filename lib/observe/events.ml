(* A small process-global ring of supervision/degradation events. Unlike
   Trace (per-compile, explicitly collected), this is an always-on flight
   recorder: every self-healing action and every degraded-mode tell lands
   here with a wall-clock stamp, so "why was throughput low at 14:32" is
   answerable from a snapshot alone. Bounded, lock-protected, cheap —
   events are rare (restarts, reincarnations, breaker trips, inline runs),
   never per-kernel. *)

type event = {
  ev_ts : float;  (* Unix.gettimeofday at record time *)
  ev_kind : string;
  ev_component : string;
  ev_detail : string;
}

let capacity = 256
let lock = Mutex.create ()
let ring : event option array = Array.make capacity None
let next = ref 0 (* total events ever recorded *)

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let record ~kind ~component detail =
  let ev =
    { ev_ts = Unix.gettimeofday (); ev_kind = kind; ev_component = component;
      ev_detail = detail }
  in
  locked (fun () ->
      ring.(!next mod capacity) <- Some ev;
      incr next)

let recorded () = locked (fun () -> !next)

(* Oldest-first slice of the still-buffered tail. *)
let recent ?(limit = capacity) () =
  locked (fun () ->
      let n = !next in
      let avail = min n capacity in
      let take = min limit avail in
      let out = ref [] in
      for i = 0 to take - 1 do
        (* newest-first index walking back from n-1 *)
        match ring.((n - 1 - i) mod capacity) with
        | Some ev -> out := ev :: !out
        | None -> ()
      done;
      !out)

let clear () =
  locked (fun () ->
      Array.fill ring 0 capacity None;
      next := 0)

let event_to_json ev =
  Json.Obj
    [
      ("ts", Json.Float ev.ev_ts);
      ("kind", Json.String ev.ev_kind);
      ("component", Json.String ev.ev_component);
      ("detail", Json.String ev.ev_detail);
    ]

let to_json ?limit () =
  Json.List (List.map event_to_json (recent ?limit ()))

(* {2 Post-mortem dump}

   The ring is only useful after an incident if it survives the process:
   [dump] writes the buffered tail as one JSON document (atomic
   tmp+rename, so a crash mid-dump never leaves a torn file), [path]
   defaulting to [GC_EVENTS_DUMP]. When that variable is set at program
   start an [at_exit] hook dumps automatically — OCaml runs [at_exit]
   both on orderly exit and after an uncaught exception, so graceful
   shutdowns and fatal error paths both leave a post-mortem behind. *)

let dump_path () =
  match Sys.getenv_opt "GC_EVENTS_DUMP" with
  | Some p when String.trim p <> "" -> Some (String.trim p)
  | _ -> None

let dump ?path () =
  match (match path with Some _ as p -> p | None -> dump_path ()) with
  | None -> None
  | Some file ->
      let doc =
        Json.Obj
          [
            ("schema", Json.String "gc-events/1");
            ("dumped_at", Json.Float (Unix.gettimeofday ()));
            ("recorded", Json.Int (recorded ()));
            ("capacity", Json.Int capacity);
            ("events", to_json ());
          ]
      in
      (match
         let tmp = file ^ ".tmp" in
         let oc = open_out tmp in
         Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
             Json.to_channel oc doc);
         Sys.rename tmp file
       with
      | () -> Some file
      | exception _ -> None (* a failing post-mortem must not mask the exit *))

let () =
  (* armed only by the environment: libraries must not surprise their
     host process with exit-time filesystem writes *)
  match dump_path () with
  | Some _ -> at_exit (fun () -> ignore (dump ()))
  | None -> ()
