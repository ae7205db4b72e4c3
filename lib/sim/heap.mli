(** Array-backed binary min-heap. It is the event queue of the
    reference engine that tests hold {!Engine} to, and the queue the
    benchmark's [sim.heap_ns] probe times. {!Engine} keeps its own
    queue, specialised to events.

    The heap is polymorphic in its element type; ordering is fixed at
    creation time by a [leq] total preorder. All operations are the
    textbook O(log n) except [of_list], which is O(n log n). *)

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

val clear : 'a t -> unit
val of_list : leq:('a -> 'a -> bool) -> 'a list -> 'a t

(** [to_sorted_list h] drains [h], returning all elements in pop order. *)
val to_sorted_list : 'a t -> 'a list
