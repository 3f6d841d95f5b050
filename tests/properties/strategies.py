"""Shared hypothesis strategies for the property-based tests."""

from __future__ import annotations

from hypothesis import strategies as st

from repro import (
    Application,
    Assignment,
    CommunicationModel,
    Mapping,
    MappingRule,
    Platform,
    PlatformClass,
    ProblemInstance,
)
from repro.core import processors_from_speed_sets

#: Bounded positive floats that keep all arithmetic well-conditioned.
works = st.floats(min_value=0.1, max_value=50.0, allow_nan=False)
datas = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)
speeds = st.floats(min_value=0.5, max_value=10.0, allow_nan=False)
bandwidths = st.floats(min_value=0.5, max_value=10.0, allow_nan=False)
weights = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)


@st.composite
def applications(draw, max_stages: int = 5):
    """A random well-formed application."""
    n = draw(st.integers(min_value=1, max_value=max_stages))
    return Application.from_lists(
        works=draw(st.lists(works, min_size=n, max_size=n)),
        output_sizes=draw(st.lists(datas, min_size=n, max_size=n)),
        input_data_size=draw(datas),
        weight=draw(weights),
    )


@st.composite
def speed_sets(draw, max_modes: int = 3):
    """A sorted set of 1..max_modes distinct positive speeds."""
    modes = draw(
        st.lists(speeds, min_size=1, max_size=max_modes, unique=True)
    )
    return tuple(sorted(modes))


@st.composite
def hom_platforms(draw, n_min: int = 1, n_max: int = 6):
    """A fully homogeneous platform."""
    n = draw(st.integers(min_value=n_min, max_value=n_max))
    return Platform.fully_homogeneous(
        n, speeds=draw(speed_sets()), bandwidth=draw(bandwidths)
    )


@st.composite
def _random_partitions(draw, apps):
    """Random interval partition of each application's stages."""
    partitions = []
    for app in apps:
        cuts = sorted(
            draw(
                st.sets(
                    st.integers(1, app.n_stages - 1),
                    max_size=app.n_stages - 1,
                )
            )
        ) if app.n_stages > 1 else []
        bounds = [0, *cuts, app.n_stages]
        partitions.append(
            [(bounds[i], bounds[i + 1] - 1) for i in range(len(bounds) - 1)]
        )
    return partitions


def _place(draw, apps, platform, partitions):
    """Place the partitions on distinct random processors, random modes."""
    n_procs = platform.n_processors
    procs = draw(st.permutations(range(n_procs)))
    assignments = []
    idx = 0
    for a, intervals in enumerate(partitions):
        for iv in intervals:
            u = procs[idx]
            idx += 1
            speed = draw(st.sampled_from(platform.processor(u).speeds))
            assignments.append(
                Assignment(app=a, interval=iv, proc=u, speed=speed)
            )
    return Mapping.from_assignments(assignments)


@st.composite
def mapped_instances(draw, max_apps: int = 2, max_stages: int = 4):
    """A (apps, platform, valid interval mapping) triple.

    The mapping partitions each application at random cut points, places
    intervals on distinct random processors and picks a random mode each.
    """
    n_apps = draw(st.integers(min_value=1, max_value=max_apps))
    apps = tuple(draw(applications(max_stages)) for _ in range(n_apps))
    partitions = draw(_random_partitions(apps))
    total_intervals = sum(len(p) for p in partitions)
    n_procs = total_intervals + draw(st.integers(0, 2))
    platform = Platform.fully_homogeneous(
        n_procs, speeds=draw(speed_sets()), bandwidth=draw(bandwidths)
    )
    return apps, platform, _place(draw, apps, platform, partitions)


@st.composite
def one_to_one_mapped_instances(draw, max_apps: int = 2, max_stages: int = 4):
    """A (apps, platform, valid one-to-one mapping) triple.

    Every interval is a single stage (the one-to-one rule), placed on
    distinct random processors at random modes.
    """
    n_apps = draw(st.integers(min_value=1, max_value=max_apps))
    apps = tuple(draw(applications(max_stages)) for _ in range(n_apps))
    partitions = [
        [(k, k) for k in range(app.n_stages)] for app in apps
    ]
    total_intervals = sum(len(p) for p in partitions)
    n_procs = total_intervals + draw(st.integers(0, 2))
    platform = Platform.fully_homogeneous(
        n_procs, speeds=draw(speed_sets()), bandwidth=draw(bandwidths)
    )
    return apps, platform, _place(draw, apps, platform, partitions)


@st.composite
def het_mapped_instances(draw, max_apps: int = 2, max_stages: int = 4):
    """Like :func:`mapped_instances` on a fully heterogeneous platform.

    Exercises every bandwidth-resolution path: explicit processor-pair
    links, per-application virtual in/out links, per-application
    bandwidths and the platform default.
    """
    n_apps = draw(st.integers(min_value=1, max_value=max_apps))
    apps = tuple(draw(applications(max_stages)) for _ in range(n_apps))
    partitions = draw(_random_partitions(apps))
    total_intervals = sum(len(p) for p in partitions)
    n_procs = total_intervals + draw(st.integers(0, 2))
    platform = _het_platform(draw, n_apps, n_procs)
    return apps, platform, _place(draw, apps, platform, partitions)


def _het_platform(draw, n_apps: int, n_procs: int) -> Platform:
    """A fully heterogeneous platform of ``n_procs`` processors."""
    speed_set_list = [draw(speed_sets()) for _ in range(n_procs)]
    pairs = [(u, v) for u in range(n_procs) for v in range(u + 1, n_procs)]
    links = {
        pair: draw(bandwidths)
        for pair in draw(
            st.lists(st.sampled_from(pairs), unique=True, max_size=4)
        )
    } if pairs else {}
    in_links = {
        (a, u): draw(bandwidths)
        for a in range(n_apps)
        for u in range(n_procs)
        if draw(st.booleans())
    }
    out_links = {
        (a, u): draw(bandwidths)
        for a in range(n_apps)
        for u in range(n_procs)
        if draw(st.booleans())
    }
    app_bandwidths = {
        a: draw(bandwidths)
        for a in range(n_apps)
        if draw(st.booleans())
    }
    return Platform(
        processors=processors_from_speed_sets(speed_set_list),
        default_bandwidth=draw(bandwidths),
        links=links,
        in_links=in_links,
        out_links=out_links,
        app_bandwidths=app_bandwidths,
    )


@st.composite
def mapped_problems(draw, max_apps: int = 2, max_stages: int = 4):
    """A (problem, valid mapping) pair drawn over every platform class,
    both communication models and both mapping rules."""
    rule = draw(st.sampled_from(list(MappingRule)))
    n_apps = draw(st.integers(min_value=1, max_value=max_apps))
    apps = tuple(draw(applications(max_stages)) for _ in range(n_apps))
    if rule is MappingRule.ONE_TO_ONE:
        partitions = [[(k, k) for k in range(app.n_stages)] for app in apps]
    else:
        partitions = draw(_random_partitions(apps))
    n_procs = sum(len(p) for p in partitions) + draw(st.integers(0, 2))
    platform_class = draw(st.sampled_from(list(PlatformClass)))
    if platform_class is PlatformClass.FULLY_HOMOGENEOUS:
        platform = Platform.fully_homogeneous(
            n_procs, speeds=draw(speed_sets()), bandwidth=draw(bandwidths)
        )
    elif platform_class is PlatformClass.COMM_HOMOGENEOUS:
        platform = Platform(
            processors=processors_from_speed_sets(
                [draw(speed_sets()) for _ in range(n_procs)]
            ),
            default_bandwidth=draw(bandwidths),
        )
    else:
        platform = _het_platform(draw, n_apps, n_procs)
    problem = ProblemInstance(
        apps=apps,
        platform=platform,
        rule=rule,
        model=draw(st.sampled_from(list(CommunicationModel))),
    )
    return problem, _place(draw, apps, platform, partitions)
