(** Array-backed binary min-heap, used as the simulator's event queue.

    The heap is polymorphic in its element type; ordering is fixed at
    creation time by a [leq] total preorder. All operations are the
    textbook O(log n) except [of_list], which is O(n log n), and
    [filter]. *)

type 'a t

(** [create ~leq] is an empty heap ordered by [leq]. [leq a b] must be
    true when [a] should be popped no later than [b]. *)
val create : leq:('a -> 'a -> bool) -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit

(** [pop h] removes and returns a minimal element. Raises [Not_found]
    on an empty heap. *)
val pop : 'a t -> 'a

(** [peek h] is a minimal element without removing it. Raises
    [Not_found] on an empty heap. *)
val peek : 'a t -> 'a

(** [filter h keep] removes every element for which [keep] is false
    and restores heap order. It takes time linear in the length of the
    array behind [h]: at most twice the most elements [h] has held
    since it was last empty, or 16. No slot keeps a removed element
    reachable. *)
val filter : 'a t -> ('a -> bool) -> unit

val clear : 'a t -> unit
val of_list : leq:('a -> 'a -> bool) -> 'a list -> 'a t

(** [to_sorted_list h] drains [h], returning all elements in pop order. *)
val to_sorted_list : 'a t -> 'a list
