let pattern_byte i = Char.chr (((i * 31) + 7) land 0xFF)
let ninodes = 256

type shape = {
  blocks : int;
  journal_blocks : int;
  inodes : int;
  files : (string * int) list;
}

(* A formatted, populated disk and the filesystem mounted on it.  Both
   stay as mkfs left them: [media] is immutable, and [fs] is only ever
   cloned. *)
type image = { media : Vfs.Disk.snapshot; fs : Vfs.Fs.t }

(* Per domain, so no image or template is touched by two domains; a
   handful of shapes covers every scenario and experiment. *)
let memo_bound = 8

let memo : (shape * image) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

(* An engine that [Engine.set_create_hook] does not see, so building an
   image leaves no record in the caller's traces, profiles or
   registries. *)
let private_engine () =
  Vsim.Engine.with_create_hook None (fun () -> Vsim.Engine.create ())

let build s =
  let eng = private_engine () in
  let disk =
    Vfs.Disk.create eng ~latency:(Vfs.Disk.Fixed 0) ~blocks:s.blocks
      ~block_size:Vfs.Fs.block_size ()
  in
  let fs_box = ref None in
  let (_ : Vsim.Proc.t) =
    Vsim.Proc.spawn eng ~name:"mkfs" (fun () ->
        Vfs.Fs.format disk ~journal_blocks:s.journal_blocks ~ninodes:s.inodes
          ();
        let fs =
          match Vfs.Fs.mount disk with
          | Ok fs -> fs
          | Error e -> Fmt.failwith "mkfs: %a" Vfs.Fs.pp_error e
        in
        List.iter
          (fun (name, size) ->
            let fail e = Fmt.failwith "mkfs %s: %a" name Vfs.Fs.pp_error e in
            match Vfs.Fs.create fs name with
            | Error e -> fail e
            | Ok inum -> (
                let data = Bytes.init size pattern_byte in
                match Vfs.Fs.write fs ~inum ~pos:0 data with
                | Ok () -> ()
                | Error e -> fail e))
          s.files;
        fs_box := Some fs)
  in
  Vsim.Engine.run eng;
  { media = Vfs.Disk.snapshot disk; fs = Option.get !fs_box }

let image s =
  let m = Domain.DLS.get memo in
  match List.assoc_opt s !m with
  | Some img -> img
  | None ->
      let img = build s in
      m := (s, img) :: List.filteri (fun i _ -> i < memo_bound - 1) !m;
      img

let make eng ~host ~latency ~blocks ~journal_blocks ~files =
  let img = image { blocks; journal_blocks; inodes = ninodes; files } in
  let disk =
    Vfs.Disk.create eng ~host ~latency ~blocks ~block_size:Vfs.Fs.block_size
      ()
  in
  Vfs.Disk.seed disk img.media;
  let fs = Vfs.Fs.clone img.fs disk in
  (* Whatever the caller scheduled before asking for a filesystem runs
     now, as it did when mkfs ran on this engine. *)
  Vsim.Engine.run eng;
  fs
