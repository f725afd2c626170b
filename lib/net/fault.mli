(** Fault injection for the network medium. *)

type action =
  | Drop  (** the frame vanishes for every receiver *)
  | Duplicate  (** every receiver gets a second copy one slot later *)
  | Delay of int  (** delivery postponed by the given extra nanoseconds *)
  | Reorder
      (** the frame is held and released just after the next completed
          transmission's delivery, swapping their arrival order; if the
          wire then goes quiet the held frame is flushed by a timer *)

type host_event =
  | Crash
      (** the host loses power at the instant the given transmission
          completes: its kernel state vanishes, its fibers never run
          again, but its disk contents persist *)
  | Restart of int
      (** like [Crash], then the host comes back up the given number of
          nanoseconds later and runs its recovery path *)

type t = {
  drop_prob : float;  (** Frame silently lost in transit. *)
  corrupt_prob : float;
      (** Each delivery is, with this probability, a private copy of the
          frame with [corrupted] set; the NIC's CRC check drops it after
          reception. *)
  collision_bug : bool;
      (** The paper's 3 Mb interface hardware bug (Section 5.4): collisions
          sometimes go undetected and "show up as corrupted packets".  When
          set, each frame is corrupted with probability [bug_prob] —
          the paper observed roughly one per 2000 packets. *)
  bug_prob : float;
  actions : (int * action) list;
      (** Scripted per-frame actions keyed by 1-based position in the
          medium's completed-transmission order.  Independent of the RNG, so a
          checker can explore schedules without perturbing any other
          random stream. *)
  host_events : (int * host_event) list;
      (** Scripted host-level faults keyed by the same 1-based
          completed-transmission order.  Which host crashes is decided by
          the medium's host handler, not the schedule: the checker wires
          the handler to the host under test. *)
}

val none : t
val drop : float -> t
val corrupt : float -> t

val drop_nth : int list -> t
(** Scripted loss only: [drop_nth [2; 5]] drops the 2nd and 5th frames
    put on the wire. *)

val script : (int * action) list -> t
(** Scripted actions only: [script [(2, Duplicate); (5, Drop)]]. *)

val with_host_events : t -> (int * host_event) list -> t
(** [t] with its host-event script replaced. *)

val hardware_bug : t
(** The Section 5.4 configuration: 1/2000 corruption. *)

val action_for : t -> int -> action option
(** The scripted action for completed transmission [n], if any. *)

val host_event_for : t -> int -> host_event option
(** The scripted host event for completed transmission [n], if any. *)

val pp : Format.formatter -> t -> unit
