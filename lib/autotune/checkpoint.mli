(** Durable search checkpoints: the on-disk form of
    {!Search.checkpoint}.

    A checkpoint file is a magic line carrying
    {!Search.checkpoint_format} followed by the marshalled snapshot.
    Files are written atomically — temp file in the destination
    directory, then a rename — so a process killed mid-write (the
    serving daemon's whole threat model) leaves either the previous
    checkpoint or the new one, never a torn file.

    Checkpoints use [Marshal] and are therefore {e host-local}: they
    are not portable across OCaml versions or architectures, and they
    must only be loaded from trusted directories (the daemon's
    [--checkpoint-dir]).  {!load} validates the magic line, so a file
    of another checkpoint format is rejected before it is unmarshalled,
    and rejects truncated or corrupt payloads with [Error]; {!Search.run}
    additionally rejects snapshots whose embedded
    {!Search.checkpoint_format} or operator hash do not match. *)

val save : string -> Search.checkpoint -> unit
(** [save path ck] writes [ck] to [path] atomically (temp file +
    rename in [dirname path]).
    @raise Sys_error when the directory is missing or unwritable. *)

val load : string -> (Search.checkpoint, string) result
(** Read a checkpoint written by {!save}.  Missing files, wrong magic,
    truncation and corrupt payloads are all [Error] with a
    path-prefixed message; this function never raises. *)
