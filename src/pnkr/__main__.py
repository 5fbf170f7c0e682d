from .cli import main  # python -m pnkr

if __name__ == "__main__":
    raise SystemExit(main())
