"""Counting the calls a test makes to chosen methods."""


def count_calls(monkeypatch, cls, names):
    """Wrap each named method of cls (or function, when cls is a module) so
    that its calls are counted; returns the name -> count dict that the
    wrappers update."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        method = getattr(cls, name)

        def counted(*args, _name=name, _method=method, **kw):
            calls[_name] += 1
            return _method(*args, **kw)
        monkeypatch.setattr(cls, name, counted)
    return calls
