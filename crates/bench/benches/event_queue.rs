//! Microbenches for the engine hot path: raw push/pop on the bucketed
//! event queue, and the engine loop's event throughput.

use rtm_bench::micro::bench;

use akita::{CompBase, Component, ComponentId, Ctx, EventKind, EventQueue, Simulation, VTime};

const QUEUE_OPS: u64 = 4096;

/// Push/pop `QUEUE_OPS` events that all land on the current virtual time —
/// the dominant pattern in a busy cycle (every tick, wake, and same-cycle
/// delivery). They all append to the front bucket.
fn bench_same_cycle() {
    bench("queue/same_cycle_burst", || {
        let mut q = EventQueue::new();
        for i in 0..QUEUE_OPS {
            q.push(
                VTime::ZERO,
                ComponentId::from_index((i % 64) as usize),
                EventKind::Tick,
            );
        }
        let mut popped = 0u64;
        while q.pop().is_some() {
            popped += 1;
        }
        popped
    });
}

/// A mixed stream: mostly same-cycle events with periodic future-time
/// schedules, popped as the engine would as time moves. The realistic
/// steady-state shape.
fn bench_mixed_stream() {
    bench("queue/mixed_stream", || {
        let mut q = EventQueue::new();
        let mut pushed = 0u64;
        let mut popped = 0u64;
        while let Some(ev) = {
            if pushed == 0 {
                q.push(VTime::ZERO, ComponentId::from_index(0), EventKind::Tick);
                pushed = 1;
            }
            q.pop()
        } {
            popped += 1;
            if pushed < QUEUE_OPS {
                // Three same-cycle events, one future-time event.
                for i in 0..3u64 {
                    q.push(
                        ev.time,
                        ComponentId::from_index(((pushed + i) % 64) as usize),
                        EventKind::Tick,
                    );
                }
                q.push(
                    ev.time + VTime::from_ns(1),
                    ComponentId::from_index((pushed % 64) as usize),
                    EventKind::Tick,
                );
                pushed += 4;
            }
        }
        popped
    });
}

/// A component that ticks for a fixed number of cycles doing trivial work,
/// so the measurement is the engine loop itself.
struct Spinner {
    base: CompBase,
    remaining: u64,
    acc: u64,
}

impl Component for Spinner {
    fn base(&self) -> &CompBase {
        &self.base
    }
    fn base_mut(&mut self) -> &mut CompBase {
        &mut self.base
    }
    fn tick(&mut self, _ctx: &mut Ctx) -> bool {
        self.acc = self.acc.wrapping_mul(6364136223846793005).wrapping_add(1);
        self.remaining -= 1;
        self.remaining > 0
    }
}

fn build_spinners(n_components: usize, ticks_each: u64) -> Simulation {
    let mut sim = Simulation::new();
    for i in 0..n_components {
        let (id, _) = sim.register(Spinner {
            base: CompBase::new("Spinner", format!("S{i}")),
            remaining: ticks_each,
            acc: i as u64,
        });
        sim.wake_at(id, VTime::ZERO);
    }
    sim
}

/// 64 components ticking every cycle: the engine loop's per-event cost.
fn bench_engine_loop() {
    bench("engine/spinners", || {
        let mut sim = build_spinners(64, 10_000 / 64);
        sim.run()
    });
}

fn main() {
    bench_same_cycle();
    bench_mixed_stream();
    bench_engine_loop();
}
