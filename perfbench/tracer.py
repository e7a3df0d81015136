"""Per-layer tracing of qsdsim from outside the package.

The tracer replaces the public entry points of each layer with timing
wrappers and puts the originals back afterwards. A name is patched
where it is looked up: class attributes such as ``Configuration.add``,
and names that ``from .x import y`` bound into the importing module.
Calls aggregate into a tree keyed by (parent node, name), so a hot
per-event call costs one count and one time sum under its enclosing
span and memory stays flat however many events run. The wrappers only
time and count: they draw no random numbers and change no argument or
result, so traced artifacts are byte-identical to untraced ones.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator

LAYERS = ("cli", "config", "streams", "simulator", "configuration", "rates",
          "trait_space", "qsd", "oracle", "validation")


class Node:
    """Aggregated calls of one name under one parent."""

    __slots__ = ("name", "layer", "count", "total", "children", "extra")

    def __init__(self, name: str, layer: str | None) -> None:
        self.name = name
        self.layer = layer
        self.count = 0
        self.total = 0.0
        self.children: dict[str, Node] = {}
        self.extra: dict[str, float] = {}

    def child(self, name: str, layer: str) -> "Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name, layer)
        return node

    @property
    def self_time(self) -> float:
        return self.total - sum(c.total for c in self.children.values())

    def walk(self) -> Iterator["Node"]:
        yield self
        for c in self.children.values():
            yield from c.walk()


Note = Callable[[Node, tuple, object], None]


class Span:
    """Times one call of ``name`` into its node under the current one."""

    __slots__ = ("stack", "name", "layer", "node", "t0")

    def __init__(self, stack: list[Node], name: str, layer: str) -> None:
        self.stack, self.name, self.layer = stack, name, layer

    def __enter__(self) -> Node:
        self.node = self.stack[-1].child(self.name, self.layer)
        self.stack.append(self.node)
        self.t0 = time.perf_counter()
        return self.node

    def __exit__(self, *exc) -> None:
        self.node.total += time.perf_counter() - self.t0
        self.node.count += 1
        self.stack.pop()


def _lookup(owner, attr: str):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _assign(owner, attr: str, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Call tree of one traced sequence, plus the patches that feed it."""

    def __init__(self) -> None:
        self.root = Node("root", None)
        self._stack = [self.root]
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, layer: str) -> Span:
        return Span(self._stack, name, layer)

    def wrap(self, fn: Callable, name: str, layer: str, note: Note | None = None) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name, layer) as node:
                result = fn(*args, **kwargs)
            if note is not None:
                note(node, args, result)
            return result

        return traced

    def replace(self, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Swap ``owner.attr`` (or ``owner[attr]``) for ``make(original)``."""
        original = _lookup(owner, attr)
        _assign(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def patch(self, owner, attr: str, name: str, layer: str, note: Note | None = None) -> None:
        self.replace(owner, attr, lambda fn: self.wrap(fn, name, layer, note))

    def patch_map_replicas(self, module, layer: str) -> None:
        """Time the replica loop (streams) and each replica (``layer``)."""
        def make(original: Callable) -> Callable:
            loop = self.wrap(original, "streams.map_replicas", "streams")

            def traced_map(fn, *args, **kwargs):
                return loop(self.wrap(fn, f"{layer}.replica", layer), *args, **kwargs)

            return traced_map

        self.replace(module, "map_replicas", make)

    def restore(self) -> None:
        while self._patches:
            _assign(*self._patches.pop())


def _note_support(node: Node, args: tuple, result) -> None:
    node.extra["support"] = node.extra.get("support", 0) + len(args[0].entries)


def _note_trajectory(node: Node, args: tuple, result) -> None:
    for key, value in (("candidates", result.candidate_count),
                       ("accepted", result.accepted_count)):
        node.extra[key] = node.extra.get(key, 0) + (value or 0)


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every layer's entry points for the duration of the block."""
    from qsdsim import cli, config, qsd, simulator, validation
    from qsdsim.configuration import Configuration
    from qsdsim.rates import LogisticModel, UniformModel
    from qsdsim.streams import RandomStream
    from qsdsim.trait_space import TruncatedGaussianKernel, UniformKernel

    p = tracer.patch
    try:
        p(cli, "parse_config_text", "config.parse", "config")
        p(cli, "resolve_config", "config.resolve", "config")
        p(config.ExperimentConfig, "config_hash", "config.hash", "config")
        for attr in ("_write_json", "write_trajectory_csv", "write_sample_csv"):
            p(cli, attr, "cli.write", "cli")

        p(RandomStream, "generator", "streams.generator", "streams")
        tracer.patch_map_replicas(simulator, "simulator")
        tracer.patch_map_replicas(qsd, "simulator")
        tracer.patch_map_replicas(validation, "validation")

        for engine in list(simulator.ENGINES):
            p(simulator.ENGINES, engine, "simulator.simulate", "simulator", _note_trajectory)
        p(cli, "survival_curve", "simulator.survival_curve", "simulator")

        for attr in ("add", "remove"):
            p(Configuration, attr, f"configuration.{attr}", "configuration", _note_support)
        p(Configuration, "individual_trait", "configuration.individual_trait",
          "configuration")

        for cls in (UniformModel, LogisticModel):
            for attr in ("total_jump_rate", "state_rates", "death_bound", "clonal_rate",
                         "mutation_rate", "death_rate", "reproduction_rate",
                         "mass_birth_death_rates"):
                p(cls, attr, "rates.call", "rates")
        p(simulator, "sample_mutation_parent", "rates.call", "rates")

        for cls in (UniformKernel, TruncatedGaussianKernel):
            p(cls, "sample", "trait_space.sample", "trait_space")
            p(cls, "density", "trait_space.density", "trait_space")
        p(simulator, "sample_base", "trait_space.sample", "trait_space")
        p(qsd, "sample_base", "trait_space.sample", "trait_space")

        p(cli, "yaglom_estimate", "qsd.yaglom", "qsd")
        p(cli, "fleming_viot_estimate", "qsd.fv", "qsd")

        p(cli, "build_mass_chain", "oracle.build", "oracle")
        p(cli, "principal_left_eigenpair", "oracle.solve", "oracle")

        p(cli, "run_validation_checks", "validation.battery", "validation")
        p(validation, "generator_apply", "validation.generator_apply", "validation")
        yield tracer
    finally:
        tracer.restore()


def layer_metrics(root: Node) -> dict[str, float]:
    """Per-layer counts and times from a traced sequence's call tree.

    Times are per sequence in seconds. Self time is a node's time minus
    its children's; ``share.<layer>`` is a layer's self time over the
    traced sequence's wall time.
    """
    nodes = list(root.walk())[1:]

    def named(name: str) -> list[Node]:
        return [n for n in nodes if n.name == name]

    def count(name: str) -> int:
        return sum(n.count for n in named(name))

    def total(name: str) -> float:
        return sum(n.total for n in named(name))

    def self_of(layer: str) -> float:
        return sum(n.self_time for n in nodes if n.layer == layer)

    wall = sum(c.total for c in root.children.values())
    m: dict[str, float] = {}
    m["cli.write_s"] = sum(n.self_time for n in named("cli.write"))
    m["config.resolve_s"] = self_of("config")

    m["streams.generator_calls"] = count("streams.generator")
    m["streams.generator_s"] = total("streams.generator")
    m["streams.us_per_generator"] = 1e6 * m["streams.generator_s"] / max(
        m["streams.generator_calls"], 1)

    sim = [n for n in nodes if n.layer == "simulator"]
    replicas = named("simulator.replica")
    m["simulator.self_s"] = self_of("simulator")
    m["simulator.replicas"] = sum(n.count for n in replicas)
    m["simulator.us_per_replica"] = 1e6 * sum(n.total for n in replicas) / max(
        m["simulator.replicas"], 1)
    m["simulator.events"] = sum(c.count for n in sim for c in n.children.values()
                                if c.name in ("configuration.add", "configuration.remove"))
    simulate = named("simulator.simulate")
    m["simulator.thinning_candidates"] = sum(n.extra.get("candidates", 0) for n in simulate)
    m["simulator.thinning_accepted"] = sum(n.extra.get("accepted", 0) for n in simulate)
    m["simulator.acceptance_ratio"] = m["simulator.thinning_accepted"] / max(
        m["simulator.thinning_candidates"], 1)

    ops = named("configuration.add") + named("configuration.remove")
    m["configuration.add_calls"] = count("configuration.add")
    m["configuration.remove_calls"] = count("configuration.remove")
    m["configuration.individual_trait_calls"] = count("configuration.individual_trait")
    n_ops = sum(n.count for n in ops) + m["configuration.individual_trait_calls"]
    m["configuration.op_s"] = self_of("configuration")
    m["configuration.us_per_op"] = 1e6 * m["configuration.op_s"] / max(n_ops, 1)
    m["configuration.mean_support_size"] = sum(
        n.extra.get("support", 0) for n in ops) / max(sum(n.count for n in ops), 1)

    m["rates.jump_rate_calls"] = count("rates.call")
    m["rates.s"] = self_of("rates")
    m["rates.us_per_call"] = 1e6 * m["rates.s"] / max(m["rates.jump_rate_calls"], 1)

    m["trait_space.sample_calls"] = count("trait_space.sample")
    m["trait_space.density_calls"] = count("trait_space.density")
    m["trait_space.s"] = self_of("trait_space")

    fv = named("qsd.fv")
    m["qsd.fv_s"] = sum(n.total for n in fv)
    m["qsd.fv_self_s"] = sum(n.self_time for n in fv)
    m["qsd.fv_events"] = sum(c.count for n in fv for c in n.children.values()
                             if c.name in ("configuration.add", "configuration.remove"))
    m["qsd.fv_us_per_event"] = 1e6 * m["qsd.fv_s"] / max(m["qsd.fv_events"], 1)

    m["oracle.build_s"] = total("oracle.build")
    m["oracle.solve_s"] = total("oracle.solve")

    validate = [n for n in root.children.values() if n.name == "cli.validate"]
    m["validation.s"] = total("validation.battery")
    m["validation.replicas"] = sum(n.count for v in validate for n in v.walk()
                                   if n.name.endswith(".replica"))
    m["validation.generator_apply_calls"] = count("validation.generator_apply")

    for layer in LAYERS:
        m[f"share.{layer}"] = self_of(layer) / wall if wall > 0 else 0.0
    return m


def counts(root: Node) -> dict[str, float]:
    """Every call count and counted extra in the tree, keyed by path.

    Two traced runs of one workload and seed must agree on all of them.
    """
    out: dict[str, float] = {}

    def visit(node: Node, path: str) -> None:
        for child in node.children.values():
            key = f"{path}/{child.name}"
            out[key] = child.count
            for name, value in child.extra.items():
                out[f"{key}#{name}"] = value
            visit(child, key)

    visit(root, "")
    return out
