(** HLIX segment publisher — the server side of the shared-memory
    query fast path.

    One {!pub} is one published segment file: a unit's query index's
    own HLIX image, sealed with its content hash and CRC, that
    co-located clients map read-only and query without touching the
    socket.

    Publication is atomic: the image is copied into a temp file in
    the target directory, sealed, stamped with an even generation,
    and [rename(2)]d into place — a reader can never observe a
    half-written file at the advertised path.

    Rebuilds (Refresh barriers) rewrite the mapping {e in place}
    under the seqlock protocol: the generation word goes odd, the
    body is rewritten around it, and the generation lands on the next
    even value.  In-place rewriting (rather than a fresh
    tmp+rename) is essential — a rename would orphan every existing
    client mapping on the old inode with a forever-stale generation,
    silently freezing their answers.  When the new image outgrows the
    file, the file is grown (never shrunk) and remapped; readers
    notice [total_len] exceeding their mapping and remap the same
    path.  The capacity is rounded up generously so steady-state
    maintenance never pays the grow path. *)

module F = Hli_core.Flatindex

type pub = {
  p_path : string;  (** advertised path (post-rename) *)
  p_fd : Unix.file_descr;
  mutable p_map : F.seg;
  mutable p_cap : int;  (** mapped/file capacity, >= the image *)
  mutable p_gen : int;  (** current even generation *)
}

let chunk = 65536
let round_cap n = (n + chunk - 1) / chunk * chunk

let map_rw fd cap : F.seg =
  Bigarray.array1_of_genarray
    (Unix.map_file fd Bigarray.int8_unsigned Bigarray.c_layout true [| cap |])

(* copy [img]'s bytes [lo, hi) into the mapping *)
let blit_range (img : F.seg) (map : F.seg) lo hi =
  let sub a = Bigarray.Array1.sub a lo (hi - lo) in
  Bigarray.Array1.blit (sub img) (sub map)

(** Publish [idx]'s own HLIX image as [dir]/[name].hlix (atomic
    tmp+rename), sealed with [hash] (the 16-byte digest of the source
    HLI container), and keep the file mapped read-write for in-place
    rebuilds. *)
let publish ~dir ~name ~hash (idx : Hli_core.Query.index) : pub =
  let img = idx.Hli_core.Query.image in
  let len = Bigarray.Array1.dim img in
  let cap = round_cap len in
  let path = Filename.concat dir (name ^ ".hlix") in
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let fd =
    Unix.openfile tmp [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  (try
     Unix.ftruncate fd cap;
     let map = map_rw fd cap in
     blit_range img map 0 len;
     F.seal ~content_hash:hash map;
     F.set_generation map 2;
     Unix.rename tmp path;
     { p_path = path; p_fd = fd; p_map = map; p_cap = cap; p_gen = 2 }
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (try Unix.unlink tmp with Unix.Unix_error _ -> ());
     raise e)

(** Seqlock in-place rebuild to [idx]'s image: generation odd ->
    rewrite and reseal the body around the generation word ->
    generation even (+2).  Readers that sample the generation before
    and after a lookup can never accept a torn image. *)
let rebuild pub ~hash (idx : Hli_core.Query.index) =
  let img = idx.Hli_core.Query.image in
  let len = Bigarray.Array1.dim img in
  F.set_generation pub.p_map (pub.p_gen + 1);
  if len > pub.p_cap then begin
    let cap = round_cap len in
    Unix.ftruncate pub.p_fd cap;
    (* same inode, same pages: the odd generation already written is
       visible through the new mapping too *)
    let m = map_rw pub.p_fd cap in
    pub.p_map <- m;
    pub.p_cap <- cap
  end;
  blit_range img pub.p_map 0 F.o_gen;
  blit_range img pub.p_map (F.o_gen + 8) len;
  F.seal ~content_hash:hash pub.p_map;
  F.set_generation pub.p_map (pub.p_gen + 2);
  pub.p_gen <- pub.p_gen + 2

let close pub = try Unix.close pub.p_fd with Unix.Unix_error _ -> ()

(** Remove orphaned publish temporaries ([<segment>.tmp.<pid>]) under
    [dir], returning how many were removed.  A publisher that crashes
    between [openfile] and [rename] leaves its temp file behind
    forever — nothing ever advertises or reopens it — so any
    [*.tmp.*] in a session directory we own is garbage by
    construction (publishes within a session run on that session's
    single worker, so a sweep at session open or close can never race
    a live publish into the same directory). *)
let sweep_stale dir : int =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
      Array.fold_left
        (fun n name ->
          (* "<base>.tmp.<pid>": a ".tmp." infix, not a suffix *)
          let is_tmp =
            let rec find i =
              if i + 5 > String.length name then false
              else if String.sub name i 5 = ".tmp." then true
              else find (i + 1)
            in
            find 0
          in
          if is_tmp then (
            match Unix.unlink (Filename.concat dir name) with
            | () -> n + 1
            | exception Unix.Unix_error _ -> n)
          else n)
        0 names

(** Close and remove the advertised file.  Client mappings survive
    the unlink (the inode lives until the last mapping dies); they
    just stop seeing rebuilds, which the generation check turns into
    a wire fallback. *)
let unpublish pub =
  close pub;
  try Unix.unlink pub.p_path with Unix.Unix_error _ -> ()
