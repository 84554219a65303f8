exception Closed

type 'a t = {
  items : 'a Queue.t;
  cap : int;
  mutex : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  mutable closed : bool;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Bounded_queue.create: capacity must be >= 1";
  {
    items = Queue.create ();
    cap = capacity;
    mutex = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
    closed = false;
  }

let capacity t = t.cap

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let push t x =
  with_lock t (fun () ->
      while (not t.closed) && Queue.length t.items >= t.cap do
        Condition.wait t.not_full t.mutex
      done;
      if t.closed then raise Closed;
      Queue.add x t.items;
      Condition.signal t.not_empty)

let pop t =
  with_lock t (fun () ->
      while Queue.is_empty t.items && not t.closed do
        Condition.wait t.not_empty t.mutex
      done;
      match Queue.take_opt t.items with
      | Some _ as item ->
        Condition.signal t.not_full;
        item
      | None -> None (* closed and drained *))

let close t =
  with_lock t (fun () ->
      if not t.closed then begin
        t.closed <- true;
        (* wake everyone: blocked producers must raise, blocked consumers
           must observe the close and drain *)
        Condition.broadcast t.not_empty;
        Condition.broadcast t.not_full
      end)

let length t = with_lock t (fun () -> Queue.length t.items)
