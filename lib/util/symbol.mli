(** Global string interner: string ⇄ dense int, one table per domain.

    Safe for concurrent use from multiple OCaml domains: growth is
    mutex-guarded, and after {!freeze} lookups of already interned strings
    are lock-free (they read an immutable published snapshot). *)

type domain

val create : string -> domain
(** A fresh, empty domain with the given (diagnostic) name. *)

val domain_name : domain -> string

val size : domain -> int
(** Number of symbols interned so far; ids are [0 .. size - 1]. *)

val intern : domain -> string -> int
(** The id of the string, assigning the next dense id on first sight.
    Thread-safe: concurrent interning of the same string from any number
    of domains yields the same id, and no insertion is ever lost. *)

val find : domain -> string -> int option
(** The id of the string if already interned, without assigning one. *)

val name : domain -> int -> string
(** Inverse of {!intern}. Raises [Invalid_argument] on an unknown id. *)

val freeze : domain -> unit
(** Publish an immutable snapshot of the table: lookups that hit the
    snapshot stop taking the lock. Interning genuinely new strings keeps
    working (mutex-guarded); call again after further growth to extend the
    lock-free set. A call after no growth returns at once, so a caller
    may freeze after every small batch of growth. *)

val is_frozen : domain -> bool

val frozen_size : domain -> int
(** Number of ids covered by the lock-free snapshot (0 if never frozen). *)
