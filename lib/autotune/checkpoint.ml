(* Durable on-disk form of a search checkpoint: a fixed magic line
   (which carries the file-format version) followed by the marshalled
   Search.checkpoint.  Writes go through a temp file in the target
   directory plus a rename, so a reader — or a daemon killed mid-write
   — never sees a half-written checkpoint: the previous one survives
   until the rename commits. *)

(* The magic carries Search.checkpoint_format: Marshal is not
   layout-tagged, so reading a payload of another format as this
   build's type would be memory-unsafe, and the magic check is what
   turns that into a clean error before anything is unmarshalled. *)
let magic_prefix = "imtp-checkpoint-v"
let magic = Printf.sprintf "%s%d\n" magic_prefix Search.checkpoint_format

let save path (ck : Search.checkpoint) =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir ".ckpt" ".tmp" in
  let oc = open_out_bin tmp in
  (try
     output_string oc magic;
     Marshal.to_channel oc ck [];
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let load path : (Search.checkpoint, string) result =
  match open_in_bin path with
  | exception Sys_error m -> Error m
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try
            let got = really_input_string ic (String.length magic) in
            if got <> magic then
              Error
                (if String.starts_with ~prefix:magic_prefix got then
                   Printf.sprintf
                     "%s: checkpoint from another format (expected magic \
                      %S); remove the file to start afresh"
                     path (String.trim magic)
                 else
                   Printf.sprintf
                     "%s: not an imtp checkpoint (expected magic %S)" path
                     (String.trim magic))
            else begin
              let ck : Search.checkpoint = Marshal.from_channel ic in
              (* Forces the format/op sanity checks that Search.run
                 would perform to fail here, with a path in the
                 message, rather than deep inside a resumed search. *)
              ignore (Search.checkpoint_trial ck);
              Ok ck
            end
          with
          | End_of_file -> Error (path ^ ": truncated checkpoint")
          | Failure m ->
              Error (Printf.sprintf "%s: corrupt checkpoint (%s)" path m)
          | Sys_error m -> Error m)
