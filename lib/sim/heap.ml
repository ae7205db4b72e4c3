type 'a t = {
  leq : 'a -> 'a -> bool;
  mutable data : 'a array;
  mutable size : int;
}

let create ~leq = { leq; data = [||]; size = 0 }

let length h = h.size
let is_empty h = h.size = 0

let grow h x =
  let cap = Array.length h.data in
  if h.size = cap then begin
    let cap' = if cap = 0 then 16 else cap * 2 in
    let data' = Array.make cap' x in
    Array.blit h.data 0 data' 0 h.size;
    h.data <- data'
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.leq h.data.(i) h.data.(parent) && not (h.leq h.data.(parent) h.data.(i))
    then begin
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(parent);
      h.data.(parent) <- tmp;
      sift_up h parent
    end
  end

let push h x =
  grow h x;
  h.data.(h.size) <- x;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && not (h.leq h.data.(!smallest) h.data.(l)) then smallest := l;
  if r < h.size && not (h.leq h.data.(!smallest) h.data.(r)) then smallest := r;
  if !smallest <> i then begin
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(!smallest);
    h.data.(!smallest) <- tmp;
    sift_down h !smallest
  end

let peek h = if h.size = 0 then raise Not_found else h.data.(0)

let pop h =
  if h.size = 0 then raise Not_found;
  let top = h.data.(0) in
  h.size <- h.size - 1;
  (* No slot may keep a popped element reachable (for the engine, an
     event closure over a fiber continuation). The vacated slot keeps
     the element just moved to the root, which is live; an emptied
     heap has no live element to fill with, so it drops the array. *)
  if h.size = 0 then h.data <- [||]
  else begin
    h.data.(0) <- h.data.(h.size);
    sift_down h 0
  end;
  top

let filter h keep =
  let n = h.size in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let x = h.data.(i) in
    if keep x then begin
      h.data.(!kept) <- x;
      incr kept
    end
  done;
  h.size <- !kept;
  if h.size = 0 then h.data <- [||]
  else begin
    (* As in [pop]: every slot past the kept elements, including the
       spare capacity [grow] filled, gets a live element, so none keeps
       a dropped one reachable. *)
    Array.fill h.data h.size (Array.length h.data - h.size) h.data.(0);
    for i = (h.size / 2) - 1 downto 0 do
      sift_down h i
    done
  end

let clear h =
  h.data <- [||];
  h.size <- 0

let of_list ~leq xs =
  let h = create ~leq in
  List.iter (push h) xs;
  h

let to_sorted_list h =
  let rec drain acc = if is_empty h then List.rev acc else drain (pop h :: acc) in
  drain []
