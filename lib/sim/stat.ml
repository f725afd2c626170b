module Acc = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable mn : float;
    mutable mx : float;
    mutable sum : float;
  }

  let create () =
    { n = 0; mean = 0.0; m2 = 0.0; mn = nan; mx = nan; sum = 0.0 }

  let clear t =
    t.n <- 0;
    t.mean <- 0.0;
    t.m2 <- 0.0;
    t.mn <- nan;
    t.mx <- nan;
    t.sum <- 0.0

  let add t x =
    t.n <- t.n + 1;
    t.sum <- t.sum +. x;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if t.n = 1 then begin
      t.mn <- x;
      t.mx <- x
    end
    else begin
      if x < t.mn then t.mn <- x;
      if x > t.mx then t.mx <- x
    end

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.mean
  let stddev t = if t.n < 2 then 0.0 else sqrt (t.m2 /. float_of_int (t.n - 1))
  let min t = t.mn
  let max t = t.mx
  let total t = t.sum
end

module Series = struct
  type t = {
    mutable data : float array;
    mutable n : int;
    mutable sorted : bool;
  }

  let create () = { data = Array.make 256 0.0; n = 0; sorted = true }

  let add t x =
    if t.n = Array.length t.data then begin
      let data = Array.make (2 * t.n) 0.0 in
      Array.blit t.data 0 data 0 t.n;
      t.data <- data
    end;
    t.data.(t.n) <- x;
    t.n <- t.n + 1;
    t.sorted <- false

  let count t = t.n

  let mean t =
    if t.n = 0 then nan
    else begin
      let sum = ref 0.0 in
      for i = 0 to t.n - 1 do
        sum := !sum +. t.data.(i)
      done;
      !sum /. float_of_int t.n
    end

  let ensure_sorted t =
    if not t.sorted then begin
      let live = Array.sub t.data 0 t.n in
      Array.sort compare live;
      Array.blit live 0 t.data 0 t.n;
      t.sorted <- true
    end

  let percentile t p =
    if t.n = 0 then nan
    else begin
      ensure_sorted t;
      let rank =
        int_of_float (ceil (p /. 100.0 *. float_of_int t.n)) - 1
      in
      let rank = Stdlib.max 0 (Stdlib.min (t.n - 1) rank) in
      t.data.(rank)
    end

  let median t = percentile t 50.0

  let stddev t =
    if t.n < 2 then 0.0
    else begin
      let mu = mean t in
      let acc = ref 0.0 in
      for i = 0 to t.n - 1 do
        let d = t.data.(i) -. mu in
        acc := !acc +. (d *. d)
      done;
      sqrt (!acc /. float_of_int (t.n - 1))
    end

  let min t =
    if t.n = 0 then nan
    else begin
      ensure_sorted t;
      t.data.(0)
    end

  let max t =
    if t.n = 0 then nan
    else begin
      ensure_sorted t;
      t.data.(t.n - 1)
    end
end

module Histogram = struct
  type t = {
    bounds : float array; (* strictly increasing upper bounds *)
    counts : int array; (* length bounds + 1; last is overflow *)
    mutable n : int;
    mutable sum : float;
  }

  (* Decades from 1 µs to 1 s, in nanoseconds: latency-friendly. *)
  let default_bounds = [| 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9 |]

  let create ?(bounds = default_bounds) () =
    let k = Array.length bounds in
    if k = 0 then invalid_arg "Histogram.create: empty bounds";
    for i = 1 to k - 1 do
      if bounds.(i) <= bounds.(i - 1) then
        invalid_arg "Histogram.create: bounds must be strictly increasing"
    done;
    { bounds = Array.copy bounds; counts = Array.make (k + 1) 0; n = 0; sum = 0.0 }

  let add t x =
    let k = Array.length t.bounds in
    let i = ref 0 in
    while !i < k && x > t.bounds.(!i) do
      incr i
    done;
    t.counts.(!i) <- t.counts.(!i) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum +. x

  let count t = t.n
  let sum t = t.sum
  let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

  let buckets t =
    Array.to_list
      (Array.mapi
         (fun i c ->
           let bound =
             if i < Array.length t.bounds then t.bounds.(i) else infinity
           in
           (bound, c))
         t.counts)

  (* Nearest-rank quantile estimated from the bucket counts by linear
     interpolation inside the containing bucket (the first bucket spans
     [0, bounds.(0)]).  The overflow bucket has no upper bound, so ranks
     that land there report the last finite bound — an underestimate,
     but deterministic and monotone. *)
  let quantile t q =
    if q < 0.0 || q > 1.0 then invalid_arg "Histogram.quantile";
    if t.n = 0 then nan
    else begin
      let k = Array.length t.bounds in
      let rank =
        Stdlib.max 1
          (Stdlib.min t.n
             (int_of_float (ceil (q *. float_of_int t.n))))
      in
      let rec find i cum =
        if i > k then t.bounds.(k - 1)
        else
          let c = t.counts.(i) in
          if cum + c >= rank then
            if i = k then t.bounds.(k - 1)
            else begin
              let lo = if i = 0 then 0.0 else t.bounds.(i - 1) in
              let hi = t.bounds.(i) in
              let frac =
                float_of_int (rank - cum) /. float_of_int (Stdlib.max 1 c)
              in
              lo +. (frac *. (hi -. lo))
            end
          else find (i + 1) (cum + c)
      in
      find 0 0
    end

  let clear t =
    Array.fill t.counts 0 (Array.length t.counts) 0;
    t.n <- 0;
    t.sum <- 0.0

  let pp fmt t =
    Format.fprintf fmt "n=%d mean=%.1f" t.n (mean t);
    List.iter
      (fun (bound, c) ->
        if c > 0 then
          if Float.is_integer bound && Float.abs bound < 1e15 then
            Format.fprintf fmt " le_%.0f=%d" bound c
          else if bound = infinity then Format.fprintf fmt " inf=%d" c
          else Format.fprintf fmt " le_%g=%d" bound c)
      (buckets t)
end

module Counter = struct
  type t = { cname : string; mutable v : int }

  let create cname = { cname; v = 0 }
  let name t = t.cname
  let incr ?(by = 1) t = t.v <- t.v + by
  let value t = t.v
  let reset t = t.v <- 0
end
