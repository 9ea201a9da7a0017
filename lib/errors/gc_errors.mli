(** Typed error taxonomy for the whole compiler/runtime stack.

    Production graph runtimes (oneDNN Graph's API layer, nGraph's executor
    boundary) validate at the API surface and degrade gracefully instead of
    aborting the process. This module is the repository's version of that
    contract: every failure a caller can observe through the public API is
    one of five classes, each carrying enough structured context to
    diagnose the fault without a debugger.

    The module sits below every other library so that any layer — tensor
    buffers, the graph builder, the parallel runtime, the engine — can
    raise the same exception, and the API boundary ({!Core.execute_checked}
    / {!Core.execute_fallback}) can catch, classify and count it.
    {!Core.compile} re-raises any foreign exception escaping its pipeline
    as [Compile_error {stage = "pipeline"}]. *)

(** Structured key/value context attached to an error: site-specific
    details ([("dtype", "f32"); ("requested", "512"); ...]). *)
type ctx = (string * string) list

type error =
  | Invalid_input of { what : string; ctx : ctx }
      (** The caller handed the API something malformed: wrong shape,
          dtype, arity, a missing binding, an out-of-bounds access with a
          named buffer. Rejected at the boundary before any work. *)
  | Compile_error of { stage : string; what : string; ctx : ctx }
      (** A compiler pass or the engine's closure compiler rejected or
          mis-produced an artifact. [stage] names the pipeline stage
          ("graph-ir", "lowering", "tir", "engine"). *)
  | Runtime_fault of {
      site : string;
      what : string;
      task : int option;  (** originating parallel task index, if any *)
      backtrace : string option;
      ctx : ctx;
    }
      (** Execution of compiled code failed: a worker domain raised, a
          kernel produced poisoned output, an engine invariant broke. *)
  | Resource_exhausted of { resource : string; what : string; ctx : ctx }
      (** An allocation or capacity limit failed (buffer allocation,
          pool creation). *)
  | Timeout of { site : string; timeout_ms : int; ctx : ctx }
      (** A guarded execute exceeded its deadline (GC_EXEC_TIMEOUT_MS or
          an explicit per-call deadline). *)
  | Overloaded of { site : string; what : string; ctx : ctx }
      (** The serving layer refused admission: the bounded queue is full
          (possibly shrunk by memory-budget backpressure), the request's
          deadline is provably unmeetable given recent latencies, the
          request expired while queued, or the server is draining. The
          request was shed {e before} any execute work was spent on it. *)

exception Error of error

(** {1 Raising helpers} *)

val invalid_input : ?ctx:ctx -> string -> 'a
val compile_error : ?ctx:ctx -> stage:string -> string -> 'a
val runtime_fault :
  ?ctx:ctx -> ?task:int -> ?backtrace:string -> site:string -> string -> 'a
val resource_exhausted : ?ctx:ctx -> resource:string -> string -> 'a
val timeout : ?ctx:ctx -> site:string -> timeout_ms:int -> unit -> 'a
val overloaded : ?ctx:ctx -> site:string -> string -> 'a

(** {1 Inspection} *)

(** Stable lower-case class name: "invalid_input", "compile_error",
    "runtime_fault", "resource_exhausted", "timeout", "overloaded". *)
val class_name : error -> string

(** One-line human-readable rendering, context included. *)
val to_string : error -> string

val pp : Format.formatter -> error -> unit

(** {1 Classification of foreign exceptions} *)

(** [classify ?site ?backtrace e] maps an arbitrary exception to the
    taxonomy: [Error err] passes through unchanged; [Invalid_argument] and
    [Failure] become {!Runtime_fault} at [site] (they escaped past the
    boundary validation, so by definition they are runtime faults, not
    rejectable inputs); [Out_of_memory] becomes {!Resource_exhausted};
    anything else becomes a {!Runtime_fault} carrying
    [Printexc.to_string]. *)
val classify : ?site:string -> ?backtrace:string -> exn -> error

(** [guard ~site f] runs [f] and returns [Ok v], or [Error (classify e)]
    with the backtrace captured. *)
val guard : site:string -> (unit -> 'a) -> ('a, error) result

(** [or_raise r] unwraps [Ok v] or raises [Error e]. *)
val or_raise : ('a, error) result -> 'a
