let page_bits = 10
let page_size = 1 lsl page_bits

(* Every page of every space starts as this one buffer.  It is never
   written: every mutation goes through [own] first, so it stays all
   zeros and is safe to share between spaces and domains. *)
let zero_page = Bytes.make page_size '\000'

(* [pages] is empty until the first store: a space holds no page table
   before then.  [size] is positive, so a made table is never empty. *)
type t = { size : int; mutable pages : Bytes.t array }

let create ~size =
  if size <= 0 then invalid_arg "Mem.create: size must be positive";
  { size; pages = [||] }

let size t = t.size
let valid t ~pos ~len = pos >= 0 && len >= 0 && pos + len <= t.size

let check t ~pos ~len what =
  if not (valid t ~pos ~len) then
    Fmt.invalid_arg "Mem.%s: range %d+%d outside space of %d bytes" what pos
      len t.size

(* The caller's buffer is checked up front, with [Bytes.blit]'s own
   message, so a bad one fails before any page is touched. *)
let check_buf b off len =
  if off < 0 || off > Bytes.length b - len then invalid_arg "Bytes.blit"

let page t i = if Array.length t.pages = 0 then zero_page else t.pages.(i)

(* Page [i], given its own buffer if it still shares [zero_page], and
   the space its table if it has none yet. *)
let own t i =
  if Array.length t.pages = 0 then
    t.pages <- Array.make ((t.size + page_size - 1) lsr page_bits) zero_page;
  let p = t.pages.(i) in
  if p != zero_page then p
  else begin
    let p = Bytes.make page_size '\000' in
    t.pages.(i) <- p;
    p
  end

(* [f page_index page_off buf_off n] for each piece of [pos, pos+len)
   that lies within one page; [buf_off] counts from the range start. *)
let iter_pages ~pos ~len f =
  let rec go pos k len =
    if len > 0 then begin
      let off = pos land (page_size - 1) in
      let n = Int.min len (page_size - off) in
      f (pos lsr page_bits) off k n;
      go (pos + n) (k + n) (len - n)
    end
  in
  go pos 0 len

let blit_out t ~pos dst ~dst_off ~len =
  check t ~pos ~len "blit_out";
  check_buf dst dst_off len;
  iter_pages ~pos ~len (fun i off k n ->
      Bytes.blit (page t i) off dst (dst_off + k) n)

let read t ~pos ~len =
  check t ~pos ~len "read";
  let off = pos land (page_size - 1) in
  if len > 0 && off + len <= page_size then
    Bytes.sub (page t (pos lsr page_bits)) off len
  else begin
    let b = Bytes.create len in
    blit_out t ~pos b ~dst_off:0 ~len;
    b
  end

(* Piece by piece, each compared by [Bytes.equal] (a memcmp); a piece
   is at most a page, so its copies stay in the minor heap. *)
let equal t ~pos b =
  let len = Bytes.length b in
  check t ~pos ~len "equal";
  let rec go pos k =
    k >= len
    ||
    let off = pos land (page_size - 1) in
    let n = Int.min (len - k) (page_size - off) in
    let p = page t (pos lsr page_bits) in
    Bytes.equal
      (if n = page_size then p else Bytes.sub p off n)
      (Bytes.sub b k n)
    && go (pos + n) (k + n)
  in
  go pos 0

let blit_in t ~pos src ~src_off ~len =
  check t ~pos ~len "blit_in";
  check_buf src src_off len;
  iter_pages ~pos ~len (fun i off k n ->
      Bytes.blit src (src_off + k) (own t i) off n)

let write t ~pos data =
  let len = Bytes.length data in
  check t ~pos ~len "write";
  blit_in t ~pos data ~src_off:0 ~len

let fill t ~pos ~len c =
  check t ~pos ~len "fill";
  iter_pages ~pos ~len (fun i off _ n ->
      if c <> '\000' || page t i != zero_page then
        Bytes.fill (own t i) off n c)

let transfer ~src ~src_pos ~dst ~dst_pos ~len =
  check src ~pos:src_pos ~len "transfer(src)";
  check dst ~pos:dst_pos ~len "transfer(dst)";
  if src == dst && src_pos < dst_pos + len && dst_pos < src_pos + len then begin
    (* Overlapping ranges of one space: copy through a buffer, which
       gives [Bytes.blit]'s memmove result in either direction.  A space
       with no table yet holds only zeros, so the copy stores nothing. *)
    if Array.length src.pages > 0 then
      blit_in dst ~pos:dst_pos (read src ~pos:src_pos ~len) ~src_off:0 ~len
  end
  else
    iter_pages ~pos:dst_pos ~len (fun i off k n ->
        (* A destination piece may straddle two source pages. *)
        iter_pages ~pos:(src_pos + k) ~len:n (fun si soff sk sn ->
            let s = page src si in
            if s != zero_page || page dst i != zero_page then
              Bytes.blit s soff (own dst i) (off + sk) sn))
