(** A bounded multi-producer multi-consumer queue with blocking
    backpressure, built on a mutex and two condition variables.

    Producers block in {!push} while the queue is at capacity, so a slow
    consumer throttles its producers instead of letting the queue grow
    without bound; consumers block in {!pop} while the queue is empty.
    {!close} ends the stream: blocked producers fail with {!Closed},
    consumers drain the remaining items and then receive [None]. *)

type 'a t

exception Closed
(** Raised by {!push} on a closed queue. *)

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity < 1]. *)

val capacity : 'a t -> int

val push : 'a t -> 'a -> unit
(** Blocks while the queue holds [capacity] items.
    @raise Closed if the queue is (or becomes, while blocked) closed. *)

val pop : 'a t -> 'a option
(** Blocks while the queue is empty and open. [None] only after the queue
    is closed and fully drained. *)

val close : 'a t -> unit
(** Idempotent. Wakes every blocked producer and consumer. Items already
    queued remain poppable. *)

val length : 'a t -> int
(** Instantaneous item count (racy by nature under concurrency; exact when
    no other domain is active). *)
