//! In-memory span recorder for the traced run.
//!
//! A span is `(layer, parent, start, end)`, recorded around the
//! benchmark's own calls into one layer's public functions. Spans are
//! buffered for one unit of work (a judged set, a served request) and
//! folded into per-layer totals at the unit boundary with [`Tracer::flush`]:
//! a layer's self time is its span minus the part its child spans cover.
//! Nothing is written while the clock runs; the totals are printed once
//! at the end. A disabled tracer records nothing, so the same code path
//! measures the tracing overhead.

use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Span {
    layer: u32,
    parent: u32,
    start: u64,
    end: u64,
}

/// Totals of one layer over the traced run.
#[derive(Default)]
pub struct LayerTotal {
    pub calls: u64,
    pub self_ns: u64,
    /// Per-call self times, kept only for layers that report a
    /// percentile.
    pub samples: Option<Vec<u64>>,
}

impl LayerTotal {
    /// Mean self time per call, in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        crate::stats::ratio(self.self_ns as f64, self.calls as f64)
    }

    /// Self-time quantile `q` over the kept samples, in nanoseconds.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let mut v = self.samples.clone().unwrap_or_default();
        crate::stats::quantile(&mut v, q).map_or(0.0, |(x, _)| x as f64)
    }
}

struct Layer {
    name: String,
    /// A wrapper span groups one unit's layer spans; its own self time
    /// is glue that no layer accounts for.
    wrapper: bool,
    total: LayerTotal,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    layers: Vec<Layer>,
    spans: Vec<Span>,
    open: Vec<u32>,
    child_ns: Vec<u64>,
    attributed_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            layers: Vec::new(),
            spans: Vec::with_capacity(4096),
            open: Vec::with_capacity(16),
            child_ns: Vec::with_capacity(4096),
            attributed_ns: 0,
        }
    }

    /// Registers a layer span name; returns its handle.
    pub fn layer(&mut self, name: &str, keep_samples: bool) -> usize {
        self.register(name, keep_samples, false)
    }

    /// Registers a wrapper span name (see [`LayerTotal`]).
    pub fn wrapper(&mut self, name: &str, keep_samples: bool) -> usize {
        self.register(name, keep_samples, true)
    }

    fn register(&mut self, name: &str, keep_samples: bool, wrapper: bool) -> usize {
        self.layers.push(Layer {
            name: name.to_owned(),
            wrapper,
            total: LayerTotal {
                samples: keep_samples.then(Vec::new),
                ..LayerTotal::default()
            },
        });
        self.layers.len() - 1
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn begin(&mut self, layer: usize) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            layer: layer as u32,
            parent,
            start,
            end: start,
        });
    }

    #[inline]
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        if let Some(i) = self.open.pop() {
            self.spans[i as usize].end = end;
        }
    }

    /// Runs `f` inside a span of `layer`.
    #[inline]
    pub fn time<R>(&mut self, layer: usize, f: impl FnOnce() -> R) -> R {
        self.begin(layer);
        let r = f();
        self.end();
        r
    }

    /// Folds the buffered spans of the finished unit into the totals.
    pub fn flush(&mut self) {
        debug_assert!(self.open.is_empty(), "flush inside an open span");
        self.child_ns.clear();
        self.child_ns.resize(self.spans.len(), 0);
        for s in &self.spans {
            if s.parent != NO_PARENT {
                self.child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            let self_ns = (s.end - s.start).saturating_sub(self.child_ns[i]);
            let layer = &mut self.layers[s.layer as usize];
            layer.total.calls += 1;
            layer.total.self_ns += self_ns;
            if let Some(v) = layer.total.samples.as_mut() {
                v.push(if layer.wrapper {
                    s.end - s.start
                } else {
                    self_ns
                });
            }
            if !layer.wrapper {
                self.attributed_ns += self_ns;
            }
        }
        self.spans.clear();
    }

    pub fn total(&self, layer: usize) -> &LayerTotal {
        &self.layers[layer].total
    }

    /// One line per span name: calls and total self time, the profile
    /// the per-layer metrics are computed from.
    pub fn profile(&self) -> Vec<String> {
        self.layers
            .iter()
            .filter(|l| l.total.calls > 0)
            .map(|l| {
                format!(
                    "span {}{}: {} calls, {:.3} ms self",
                    l.name,
                    if l.wrapper { " (wrapper)" } else { "" },
                    l.total.calls,
                    l.total.self_ns as f64 / 1e6
                )
            })
            .collect()
    }

    /// Time covered by layer spans (wrapper self time excluded).
    pub fn attributed_ns(&self) -> u64 {
        self.attributed_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let root = t.wrapper("root", true);
        let leaf = t.layer("leaf", false);
        t.begin(root);
        spin(200_000);
        t.time(leaf, || spin(1_000_000));
        t.end();
        t.flush();
        let leaf_ns = t.total(leaf).self_ns;
        assert!(leaf_ns >= 1_000_000);
        let root_self = t.total(root).self_ns;
        assert!((200_000..1_000_000).contains(&root_self), "{root_self}");
        // The wrapper sample is its whole duration; only the leaf counts
        // as attributed.
        assert!(t.total(root).samples.as_ref().unwrap()[0] >= 1_200_000);
        assert_eq!(t.attributed_ns(), leaf_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let leaf = t.layer("leaf", true);
        assert_eq!(t.time(leaf, || 7), 7);
        t.flush();
        assert_eq!(t.total(leaf).calls, 0);
    }
}
