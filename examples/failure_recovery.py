#!/usr/bin/env python3
"""Section 3.4 in action: secondary failure and recovery.

A secondary crashes mid-stream, losing its undelivered records and refresh
state.  Sessions bound to it transparently *fail over* to a live replica
(still honouring seq(c) <= seq(DBsec), so their guarantees survive the
rebind).  Recovery reinstalls a quiesced copy of the primary, which
already holds every commit the replica missed, and reinitialises
seq(DBsec) (the Section 4 dummy-transaction trick); later commits reach
it through the ordinary refresh mechanism — the system is whole again.

Run:  python examples/failure_recovery.py
"""

from repro import Guarantee, ReplicatedSystem
from repro.errors import SiteUnavailableError  # noqa: F401 (see step 2)


def main() -> None:
    system = ReplicatedSystem(num_secondaries=2, propagation_delay=1.0)
    writer = system.session(Guarantee.STRONG_SESSION_SI, secondary=1)
    customer = system.session(Guarantee.STRONG_SESSION_SI, secondary=0)

    print("1. normal operation")
    customer.write("cart", ["book-1"])
    print(f"   customer reads cart: {customer.read('cart')}")

    print("\n2. secondary-1 crashes; its clients fail over to secondary-2")
    system.crash_secondary(0)
    print(f"   customer reads cart: {customer.read('cart')} "
          f"(failovers so far: {customer.failovers})")
    print(f"   now served by: {customer.secondary.name}")
    # Only when EVERY replica is down does a read surface
    # SiteUnavailableError (or wait, if the session sets failover_wait).

    print("\n3. the rest of the system keeps running")
    writer.write("cart-2", ["book-7"])
    writer.write("inventory", 500)
    print(f"   writer (on secondary-2) still sees its data: "
          f"{writer.read('inventory')}")
    print(f"   primary is now at commit ts "
          f"{system.primary.latest_commit_ts}; "
          f"crashed secondary missed "
          f"{system.primary.latest_commit_ts - system.secondaries[0].seq_db}"
          f" commits")

    print("\n4. recovery: quiesced primary copy, seq(DBsec) reinitialised")
    system.recover_secondary(0)
    system.quiesce()
    print(f"   secondary-1 state == primary state: "
          f"{system.secondary_state(0) == system.primary_state()}")
    print(f"   seq(DBsec) reinitialised to "
          f"{system.secondaries[0].seq_db} "
          f"(primary at {system.primary.latest_commit_ts})")

    print("\n5. the customer moves back, guarantees intact across the hop")
    customer.move_to(0)
    print(f"   customer reads cart: {customer.read('cart')}")
    customer.write("cart", ["book-1", "book-9"])
    print(f"   ...updates it, and immediately reads it back: "
          f"{customer.read('cart')}")


if __name__ == "__main__":
    main()
