"""Traffic class generators and composite scenarios."""

from collections import Counter

import pytest

from cgrlab.forwarding import Bundle
from cgrlab.traffic import ScenarioSpec, generate_scenario, read_tasks, write_tasks


def _spec(**overrides):
    kwargs = dict(
        seed=7,
        duration=60,
        source="1",
        dest_pool=tuple(str(n) for n in range(2, 21)),
        with_critical=True,
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


def _of_priority(spec, priority):
    return [b for b in generate_scenario(spec) if b.priority == priority]


class TestSpec:
    def test_source_excluded_from_pool(self):
        with pytest.raises(ValueError):
            _spec(dest_pool=("1", "2"))

    def test_positive_duration(self):
        with pytest.raises(ValueError):
            _spec(duration=0)


class TestStreaming:
    def test_count_one_per_five_seconds(self):
        bundles = _of_priority(_spec(duration=60), 2)
        assert len(bundles) == 12
        assert sorted(b.t_gen for b in bundles) == [float(t) for t in range(0, 60, 5)]

    def test_all_critical_one_megabit(self):
        bundles = _of_priority(_spec(), 2)
        assert bundles
        for b in bundles:
            assert b.critical and b.size == 1.0

    def test_requires_critical_class(self):
        assert _of_priority(_spec(with_critical=False), 2) == []


class TestExpedited:
    def test_window_bounds(self):
        bundles = _of_priority(_spec(duration=100), 1)
        by_window = {}
        for b in bundles:
            assert 1 <= b.size <= 5
            assert not b.critical
            by_window.setdefault(int(b.t_gen) // 10, []).append(b)
        assert all(len(v) <= 3 for v in by_window.values())

    def test_seed_determinism(self):
        a = _of_priority(_spec(), 1)
        b = _of_priority(_spec(), 1)
        assert [(x.t_gen, x.size, x.dest) for x in a] == [(x.t_gen, x.size, x.dest) for x in b]

    def test_different_seeds_differ(self):
        a = _of_priority(_spec(seed=1, duration=200), 1)
        b = _of_priority(_spec(seed=2, duration=200), 1)
        assert [(x.t_gen, x.size) for x in a] != [(x.t_gen, x.size) for x in b]


class TestData:
    def test_burst_of_twenty_within_window(self):
        bundles = _of_priority(_spec(), 0)
        per_burst = Counter(int(b.t_gen) // 25 for b in bundles)
        counts = [per_burst[w] for w in range(len(per_burst))]
        # bursts fill consecutive 25 s windows; only the last one is trimmed
        assert len(counts) > 1
        assert all(n == 20 for n in counts[:-1])
        assert 1 <= counts[-1] <= 20
        assert all(1 <= b.size <= 5 for b in bundles)

    def test_lowest_priority(self):
        bundles = _of_priority(_spec(), 0)
        assert bundles
        assert not any(b.critical for b in bundles)

    def test_seed_determinism(self):
        a = _of_priority(_spec(), 0)
        b = _of_priority(_spec(), 0)
        assert [(x.t_gen, x.size, x.dest, x.t_exp) for x in a] == [
            (x.t_gen, x.size, x.dest, x.t_exp) for x in b
        ]


class TestScenario:
    def test_no_critical_class_when_disabled(self):
        bundles = generate_scenario(_spec(with_critical=False))
        assert all(b.priority != 2 for b in bundles)
        assert all(not b.critical for b in bundles)

    def test_quarter_split_on_counts(self):
        bundles = generate_scenario(_spec(duration=25))
        high = [b for b in bundles if b.priority in (1, 2)]
        low = [b for b in bundles if b.priority == 0]
        assert len(low) == 3 * len(high)

    def test_empty_high_priority_draw_keeps_one_bundle(self):
        # seed 4 draws no expedited bundle in a 10 s window, and there is no
        # streaming class without critical traffic
        spec = _spec(seed=4, duration=10, with_critical=False)
        bundles = generate_scenario(spec)
        high = [b for b in bundles if b.priority > 0]
        assert [(b.t_gen, b.size, b.priority, b.critical) for b in high] == [(0.0, 1.0, 1, False)]
        assert len(bundles) == 4
        assert [b.priority for b in bundles].count(0) == 3

    def test_data_bursts_ignore_duration(self):
        # burst b lands in [25 b, 25 b + 25) whatever the duration; every
        # golden run depends on this placement
        bundles = generate_scenario(_spec(duration=25))
        high = [b.t_gen for b in bundles if b.priority > 0]
        data = [b.t_gen for b in bundles if b.priority == 0]
        assert max(high) < 25
        assert max(data) == 39.0
        assert max(data) < 25 * ((3 * len(high) + 19) // 20)

    def test_ttl_range(self):
        for b in generate_scenario(_spec()):
            assert 20 <= b.t_exp - b.t_gen <= 30

    def test_destinations_in_pool(self):
        spec = _spec()
        for b in generate_scenario(spec):
            assert b.dest in spec.dest_pool
            assert b.dest != spec.source

    def test_ids_unique_and_dense(self):
        bundles = generate_scenario(_spec())
        assert sorted(b.id for b in bundles) == list(range(1, len(bundles) + 1))

    def test_determinism(self):
        a = generate_scenario(_spec())
        b = generate_scenario(_spec())
        assert [(x.id, x.t_gen, x.size, x.dest, x.priority) for x in a] == [
            (x.id, x.t_gen, x.size, x.dest, x.priority) for x in b
        ]

    def test_empty_pool_rejected(self):
        spec = _spec()
        object.__setattr__(spec, "dest_pool", ())
        with pytest.raises(ValueError):
            generate_scenario(spec)

    def test_roughly_forty_bundles_for_short_window(self):
        sizes = [len(generate_scenario(_spec(seed=s, duration=25))) for s in range(1, 21)]
        assert all(20 <= n <= 60 for n in sizes)
        assert 30 <= sum(sizes) / len(sizes) <= 50


class TestTaskCsv:
    def test_roundtrip(self):
        bundles = generate_scenario(_spec(duration=25))
        again = read_tasks(write_tasks(bundles))
        assert [(b.id, b.source, b.dest, b.size, b.priority, b.critical, b.t_gen, b.t_exp)
                for b in bundles] == [
            (b.id, b.source, b.dest, b.size, b.priority, b.critical, b.t_gen, b.t_exp)
            for b in again
        ]

    def test_roundtrip_keeps_every_digit(self):
        bundles = [
            Bundle(id=1, source="A", dest="B", size=1.2345678, priority=1, critical=False,
                   t_gen=123456.5, t_exp=123480.25),
            Bundle(id=2, source="A", dest="B", size=1.0, priority=2, critical=True,
                   t_gen=0.0, t_exp=999999.5),
        ]
        text = write_tasks(bundles)
        assert text.splitlines()[1:] == [
            "1,A,B,1.2345678,1,0,123456.5,123480.25", "2,A,B,1,2,1,0,999999.5"
        ]
        assert read_tasks(text) == bundles

    def test_missing_field_names_line_and_field(self):
        text = "bundle_id,source,size_mb,priority,critical,t_gen,t_exp\n1,A,1,1,0,0,40\n"
        with pytest.raises(ValueError, match="tasks line 2: field 'dest' missing"):
            read_tasks(text)

    def test_unparsable_field_names_line_and_field(self):
        text = write_tasks(generate_scenario(_spec(duration=25)))
        lines = text.splitlines()
        fields = lines[3].split(",")
        fields[6] = "soon"
        lines[3] = ",".join(fields)
        with pytest.raises(ValueError, match="tasks line 4: field 't_gen' unparsable"):
            read_tasks("\n".join(lines) + "\n")
