(** Structured compiler diagnostics.

    Every error the pipeline can produce — lexing through simulation —
    is a {!t}: an error code, a severity, a pipeline phase, an optional
    source position and a message.  Layers raise {!Diagnostic} (via
    {!error}) instead of [failwith]/[invalid_arg]/ad-hoc exceptions, so
    drivers can render uniformly ([file:line:col: error[CODE]: msg]),
    map phases to distinct exit codes, and the experiment harness can
    downgrade a per-workload failure into an annotated partial row
    instead of aborting the whole run.

    Code ranges, one block per phase:
    - [E01xx] lexing          - [E02xx] parsing
    - [E03xx] type checking   - [E04xx] front-end analysis / HLI gen
    - [E05xx] RTL lowering    - [E06xx] HLI serialization
    - [E07xx] HLI maintenance / optimization passes
    - [E08xx] scheduling      - [E09xx] simulation / runtime
    - [E10xx] driver & pass-manager configuration
    - [E11xx] hlid wire protocol / remote query service

    The serialization block [E06xx] is subdivided (see
    [lib/core/serialize.ml] and [lib/core/validate.ml]):
    - [E0601] encoder misuse (negative varint)
    - [E0610] bad magic / unknown container revision
    - [E0611] truncated input         - [E0612] varint over 9 bytes / 62 bits
    - [E0613] length field exceeds remaining input
    - [E0614] out-of-range tag byte   - [E0615] per-entry CRC32 mismatch
    - [E0616] trailing / undecoded bytes
    - [E0621]..[E0629] structural validation (line-table order, region
      tree, class/alias/LCDD/REF-MOD id resolution, duplicate units)
    - [E0636] retired with HLI3's probability sections; not reused

    The simulation block [E09xx]:
    - [E0901] a schedule changed program output, or broke an order of
      its group's prefix (the static check or the address oracle)
    - [E0902] the simulated program's runtime error ([hlic --run])
    - [E0903] the simulated program ran out of fuel ([hlic --run])

    The wire-protocol block [E11xx] is subdivided (see
    [lib/server/protocol.ml]; DESIGN.md has the byte-level spec):
    - [E1101] unknown frame tag       - [E1102] truncated frame
    - [E1103] frame CRC32 mismatch    - [E1104] frame exceeds size bound
    - [E1105] malformed frame payload
    - [E1106] protocol state violation (query before open, double open)
    - [E1107] unknown unit name       - [E1108] relayed server-side error
    - [E1109] request/response timeout
    - [E1110] connection closed / server shutting down
    - [E1111] protocol version mismatch
    - [E1112] socket setup failure

    [E1012] (driver block) flags a malformed [HLI_JOBS] value whose
    silent fallback used to hide typos (see [Pool.default_jobs]). *)

type severity = Note | Warning | Error

type phase =
  | Lex
  | Parse
  | Typecheck
  | Analysis  (** front-end analysis (points-to, REF/MOD, dependence) *)
  | Hligen  (** ITEMGEN / TBLCONST / serialization *)
  | Lower  (** GCC-like RTL lowering *)
  | Import  (** HLI import / line mapping *)
  | Opt of string  (** an optimization or maintenance pass, by name *)
  | Sched
  | Sim  (** machine simulation *)
  | Driver  (** pipeline / pass-manager configuration *)
  | Io
  | Net  (** hlid wire protocol / remote query service *)

type t = {
  code : string;  (** e.g. ["E0301"] *)
  severity : severity;
  phase : phase;
  file : string option;
  line : int;  (** 1-based; 0 = no source position *)
  col : int;
  message : string;
}

exception Diagnostic of t

let make ?file ?(line = 0) ?(col = 0) ~code ~phase ~severity message : t =
  { code; severity; phase; file; line; col; message }

(** Raise a [Diagnostic] of severity [Error], [Fmt.kstr]-style. *)
let error ?file ?line ?col ~code ~phase fmt =
  Fmt.kstr
    (fun message ->
      raise (Diagnostic (make ?file ?line ?col ~code ~phase ~severity:Error message)))
    fmt

(** Attach (or replace) the source file of a diagnostic — drivers know
    the path, the layer that raised usually does not. *)
let with_file file d = { d with file = Some file }

let severity_name = function
  | Note -> "note"
  | Warning -> "warning"
  | Error -> "error"

(** [file:line:col: severity[CODE]: message]; position segments are
    omitted when unknown. *)
let pp ppf (d : t) =
  (match (d.file, d.line > 0) with
  | Some f, true -> Fmt.pf ppf "%s:%d:%d: " f d.line d.col
  | Some f, false -> Fmt.pf ppf "%s: " f
  | None, true -> Fmt.pf ppf "%d:%d: " d.line d.col
  | None, false -> ());
  Fmt.pf ppf "%s[%s]: %s" (severity_name d.severity) d.code d.message

let to_string (d : t) = Fmt.str "%a" pp d

(** Distinct process exit codes per failure class, used by [bin/hlic]:
    1 I/O, 2 lex/parse, 3 type, 4 compile (analysis through
    scheduling), 5 simulation/runtime, 6 driver configuration,
    7 wire protocol / remote service. *)
let exit_code (d : t) =
  match d.phase with
  | Io -> 1
  | Lex | Parse -> 2
  | Typecheck -> 3
  | Analysis | Hligen | Lower | Import | Opt _ | Sched -> 4
  | Sim -> 5
  | Driver -> 6
  | Net -> 7
