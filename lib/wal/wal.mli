(** Append-only write-ahead log for graph mutations.

    On-disk layout: a directory of segments [wal.<seq>.log], [seq]
    zero-padded to 8 digits and strictly increasing. Each segment opens
    with a 24-byte header — magic ["GFQWAL1\n"], format version (u64),
    and the LSN of its first record (u64) — followed by framed records:

    {v [len u32][crc32 u32][payload (len bytes)] v}

    where the CRC covers the payload only and the payload begins with an
    op byte ('E' add-edge, 'R' del-edge, 'V' add-vertex, 'X' del-vertex,
    'C' checkpoint) followed by little-endian u64 operands, the first of
    which is always the record's LSN. LSNs are assigned 1, 2, 3, … with
    no gaps across segments.

    Durability contract: {!append} buffers; a record is durable only once
    a {!sync} whose [durable_lsn] covers it returns. Group commit batches
    concurrent syncers behind one [fsync] — a leader flushes for every
    record appended up to the moment it syncs, followers just wait for a
    covering flush — so the fsync cost is shared across writers without
    weakening the ack rule (ack only after a covering sync).

    Recovery ({!replay}): segments are read in sequence order, each record
    re-framed and CRC-checked, LSN continuity enforced. A torn tail (short
    frame or CRC mismatch) is legal {e only} in the last segment — the
    signature of a crash mid-append — and is truncated away so the log is
    again well-formed; anywhere else it is [Corrupt]. A missing leading
    segment whose records would still be needed is [Missing_prefix]. *)

type op =
  | Add_edge of { u : int; v : int; elabel : int }
  | Del_edge of { u : int; v : int; elabel : int }
  | Add_vertex of { label : int }
  | Del_vertex of { v : int }
  | Checkpoint of { version : int }
      (** marks a durable snapshot at [version]; replay skips it *)

type error =
  | Corrupt of { segment : string; offset : int; what : string }
      (** torn or CRC-failing record anywhere but the final tail *)
  | Missing_prefix of { need_lsn : int; first_lsn : int }
      (** the oldest surviving segment starts after the replay point *)
  | Io of string

val error_to_string : error -> string

type t

(** [open_log ?segment_bytes ?sync_every_append dir] opens (creating if
    needed) the log in [dir], scans existing segments to find the next
    LSN, and starts a fresh segment. [segment_bytes] (default 8 MiB) is
    the rotation threshold: an append that would push the current segment
    past it rotates first. [sync_every_append] (default [false]) fsyncs
    on every append — the simple policy benchmarked against group
    commit. *)
val open_log : ?segment_bytes:int -> ?sync_every_append:bool -> string -> (t, error) result

(** Highest LSN covered by a completed fsync; 0 before any. *)
val durable_lsn : t -> int

(** [append t op] frames and buffers the record, returning its LSN. Not
    durable until a covering {!sync}. Thread-safe. *)
val append : t -> op -> (int, error) result

(** [sync t] ensures every record appended before the call is on disk
    (group commit: one caller leads the fsync, concurrent callers ride
    along), returning the new [durable_lsn]. *)
val sync : t -> (int, error) result

(** [rotate t] closes the current segment and starts the next one.
    Automatic when [segment_bytes] is exceeded; explicit after a
    checkpoint so old segments become deletable. *)
val rotate : t -> (unit, error) result

(** [drop_segments_below t lsn] deletes closed segments whose every
    record has LSN < [lsn] — safe once a snapshot at [lsn - 1] or later
    is durable. Returns the number of segment files removed. *)
val drop_segments_below : t -> int -> (int, error) result

val close : t -> unit

(** {1 Recovery} *)

(** [replay ?from_lsn dir f] folds [f] over every well-formed record with
    LSN > [from_lsn] (default 0) across all segments in order, verifying
    frames, CRCs, and LSN continuity. A torn tail in the {e final}
    segment is truncated (the file is rewritten to end at the last valid
    record) and replay succeeds; corruption anywhere else fails. Returns
    the last LSN seen (which is [from_lsn] on an empty log). *)
val replay : ?from_lsn:int -> string -> (lsn:int -> op -> unit) -> (int, error) result

(** [segment_files dir] lists segment basenames in ascending sequence
    order (exposed for tests and the torture verifier). *)
val segment_files : string -> string list
